#include "assembler.hh"

#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

namespace misp::isa {

namespace {

/** Tokenized operand: register, immediate, memory ref, or label name. */
struct Operand {
    enum class Kind { Reg, Imm, Mem, Name } kind;
    unsigned reg = 0;       // Reg / Mem base
    std::int64_t imm = 0;   // Imm / Mem displacement
    std::string name;       // Name
};

struct Line {
    unsigned number;
    std::string mnemonic; // lowercase, includes suffixes like "ld8"
    std::vector<Operand> operands;
};

bool
parseReg(const std::string &tok, unsigned *out)
{
    if (tok == "sp") {
        *out = kRegSp;
        return true;
    }
    if (tok.size() < 2 || tok[0] != 'r')
        return false;
    for (std::size_t i = 1; i < tok.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(tok[i])))
            return false;
    }
    unsigned r = std::stoul(tok.substr(1));
    if (r >= kNumRegs)
        return false;
    *out = r;
    return true;
}

bool
parseImm(const std::string &tok, std::int64_t *out)
{
    if (tok.empty())
        return false;
    std::size_t pos = 0;
    try {
        *out = std::stoll(tok, &pos, 0);
    } catch (...) {
        return false;
    }
    return pos == tok.size();
}

Operand
parseOperand(unsigned lineNo, std::string tok)
{
    // Trim.
    while (!tok.empty() && std::isspace(static_cast<unsigned char>(tok.front())))
        tok.erase(tok.begin());
    while (!tok.empty() && std::isspace(static_cast<unsigned char>(tok.back())))
        tok.pop_back();
    if (tok.empty())
        throw AsmError(lineNo, "empty operand");

    Operand op;
    if (tok.front() == '[') {
        if (tok.back() != ']')
            throw AsmError(lineNo, "unterminated memory operand: " + tok);
        std::string inner = tok.substr(1, tok.size() - 2);
        // forms: [rN], [rN+disp], [rN-disp]
        std::size_t sep = inner.find_first_of("+-");
        std::string regTok = sep == std::string::npos
                                 ? inner
                                 : inner.substr(0, sep);
        op.kind = Operand::Kind::Mem;
        if (!parseReg(regTok, &op.reg))
            throw AsmError(lineNo, "bad base register: " + regTok);
        if (sep != std::string::npos) {
            std::string dispTok = inner.substr(sep); // keeps the sign
            if (!parseImm(dispTok, &op.imm))
                throw AsmError(lineNo, "bad displacement: " + dispTok);
        }
        return op;
    }
    if (parseReg(tok, &op.reg)) {
        op.kind = Operand::Kind::Reg;
        return op;
    }
    if (parseImm(tok, &op.imm)) {
        op.kind = Operand::Kind::Imm;
        return op;
    }
    op.kind = Operand::Kind::Name;
    op.name = tok;
    return op;
}

std::optional<Cond>
condFromName(const std::string &name)
{
    static const std::map<std::string, Cond> kMap = {
        {"eq", Cond::Eq}, {"ne", Cond::Ne}, {"lt", Cond::Lt},
        {"le", Cond::Le}, {"gt", Cond::Gt}, {"ge", Cond::Ge},
        {"ult", Cond::Ult}, {"uge", Cond::Uge},
    };
    auto it = kMap.find(name);
    if (it == kMap.end())
        return std::nullopt;
    return it->second;
}

std::optional<Scenario>
scenarioFromName(const std::string &name)
{
    if (name == "ingress" || name == "ingress_signal")
        return Scenario::IngressSignal;
    if (name == "proxy" || name == "proxy_request")
        return Scenario::ProxyRequest;
    return std::nullopt;
}

} // namespace

Program
assemble(const std::string &source, VAddr base)
{
    ProgramBuilder builder;
    std::map<std::string, ProgramBuilder::Label> labels;

    auto labelFor = [&](const std::string &name) {
        auto it = labels.find(name);
        if (it != labels.end())
            return it->second;
        ProgramBuilder::Label l = builder.newLabel();
        labels.emplace(name, l);
        return l;
    };

    // Single streaming pass: ProgramBuilder's fixup machinery provides the
    // second "pass" by patching forward references at finish().
    std::istringstream in(source);
    std::string rawLine;
    unsigned lineNo = 0;
    std::vector<std::string> exportedNames;

    while (std::getline(in, rawLine)) {
        ++lineNo;
        // Strip comments.
        auto cut = rawLine.find(';');
        if (cut != std::string::npos)
            rawLine.resize(cut);
        cut = rawLine.find('#');
        if (cut != std::string::npos)
            rawLine.resize(cut);

        // Handle leading labels (possibly several per line).
        std::string text = rawLine;
        for (;;) {
            std::size_t firstNs = text.find_first_not_of(" \t");
            if (firstNs == std::string::npos) {
                text.clear();
                break;
            }
            std::size_t colon = text.find(':');
            std::size_t firstSpace = text.find_first_of(" \t", firstNs);
            if (colon != std::string::npos &&
                (firstSpace == std::string::npos || colon < firstSpace)) {
                std::string name = text.substr(firstNs, colon - firstNs);
                if (name.empty())
                    throw AsmError(lineNo, "empty label");
                ProgramBuilder::Label l = labelFor(name);
                builder.bind(l);
                builder.exportLabel(name, l);
                exportedNames.push_back(name);
                text = text.substr(colon + 1);
                continue;
            }
            break;
        }

        // Tokenize mnemonic + comma-separated operands.
        std::istringstream ls(text);
        std::string mnemonic;
        if (!(ls >> mnemonic))
            continue;
        for (auto &c : mnemonic)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));

        std::string rest;
        std::getline(ls, rest);
        std::vector<Operand> ops;
        if (rest.find_first_not_of(" \t") != std::string::npos) {
            std::size_t start = 0;
            int depth = 0;
            for (std::size_t i = 0; i <= rest.size(); ++i) {
                if (i < rest.size() && rest[i] == '[')
                    ++depth;
                if (i < rest.size() && rest[i] == ']')
                    --depth;
                if (i == rest.size() || (rest[i] == ',' && depth == 0)) {
                    ops.push_back(
                        parseOperand(lineNo, rest.substr(start, i - start)));
                    start = i + 1;
                }
            }
        }

        auto expect = [&](std::size_t n) {
            if (ops.size() != n)
                throw AsmError(lineNo, mnemonic + ": expected " +
                                           std::to_string(n) + " operands, got " +
                                           std::to_string(ops.size()));
        };
        auto reg = [&](std::size_t i) {
            if (ops[i].kind != Operand::Kind::Reg)
                throw AsmError(lineNo, mnemonic + ": operand " +
                                           std::to_string(i + 1) +
                                           " must be a register");
            return ops[i].reg;
        };
        auto imm = [&](std::size_t i) {
            if (ops[i].kind != Operand::Kind::Imm)
                throw AsmError(lineNo, mnemonic + ": operand " +
                                           std::to_string(i + 1) +
                                           " must be an immediate");
            return ops[i].imm;
        };
        auto mem = [&](std::size_t i) -> const Operand & {
            if (ops[i].kind != Operand::Kind::Mem)
                throw AsmError(lineNo, mnemonic + ": operand " +
                                           std::to_string(i + 1) +
                                           " must be a memory reference");
            return ops[i];
        };
        auto target = [&](std::size_t i) {
            if (ops[i].kind != Operand::Kind::Name)
                throw AsmError(lineNo, mnemonic + ": operand " +
                                           std::to_string(i + 1) +
                                           " must be a label");
            return labelFor(ops[i].name);
        };

        // Memory ops with size suffix.
        if (mnemonic.size() == 3 &&
            (mnemonic.compare(0, 2, "ld") == 0 ||
             mnemonic.compare(0, 2, "st") == 0)) {
            unsigned size = mnemonic[2] - '0';
            if (size != 1 && size != 2 && size != 4 && size != 8)
                throw AsmError(lineNo, "bad memory size: " + mnemonic);
            if (mnemonic[0] == 'l') {
                expect(2);
                const Operand &m = mem(1);
                builder.ld(reg(0), m.reg, m.imm, size);
            } else {
                expect(2);
                const Operand &m = mem(0);
                builder.st(m.reg, m.imm, reg(1), size);
            }
            continue;
        }

        // jcc.<cond>
        if (mnemonic.compare(0, 4, "jcc.") == 0 ||
            mnemonic.compare(0, 2, "j.") == 0) {
            std::string condName = mnemonic.substr(mnemonic.find('.') + 1);
            auto cond = condFromName(condName);
            if (!cond)
                throw AsmError(lineNo, "bad condition: " + condName);
            expect(1);
            builder.jcc(*cond, target(0));
            continue;
        }

        // Label operands: movi of a label loads its address; jmp/call
        // take a label, a register (jmpr/callr) or an absolute address.
        if (mnemonic == "movi" && ops.size() == 2 &&
            ops[1].kind == Operand::Kind::Name) {
            builder.leaLabel(reg(0), target(1));
            continue;
        }
        if (mnemonic == "jmp" || mnemonic == "call") {
            expect(1);
            const bool isJmp = mnemonic == "jmp";
            if (ops[0].kind == Operand::Kind::Name)
                isJmp ? builder.jmp(target(0)) : builder.call(target(0));
            else if (ops[0].kind == Operand::Kind::Reg)
                isJmp ? builder.jmpr(reg(0)) : builder.callr(reg(0));
            else if (isJmp)
                builder.jmpAbs(static_cast<VAddr>(imm(0)));
            else
                builder.callAbs(static_cast<VAddr>(imm(0)));
            continue;
        }
        if (mnemonic == "compute") {
            if (ops.size() == 1)
                builder.compute(static_cast<std::uint64_t>(imm(0)));
            else if (ops.size() == 2)
                builder.compute(static_cast<std::uint64_t>(imm(0)), reg(1));
            else
                throw AsmError(lineNo, "compute: 1 or 2 operands");
            continue;
        }
        if (mnemonic == "semonitor") {
            expect(2);
            if (ops[0].kind != Operand::Kind::Name)
                throw AsmError(lineNo, "semonitor: first operand is a scenario name");
            auto sc = scenarioFromName(ops[0].name);
            if (!sc)
                throw AsmError(lineNo, "bad scenario: " + ops[0].name);
            builder.semonitor(*sc, target(1));
            continue;
        }

        // Every other mnemonic: its operands follow the table's format.
        Instruction inst;
        if (!opcodeFromName(mnemonic, &inst.op))
            throw AsmError(lineNo, "unknown mnemonic: " + mnemonic);
        // Atomics address memory through a bare base register.
        auto atomicBase = [&](std::size_t i) {
            const Operand &m = mem(i);
            if (m.imm != 0)
                throw AsmError(lineNo,
                               mnemonic + " does not take a displacement");
            return m.reg;
        };
        switch (opInfo(inst.op).format) {
          case OpFormat::None:
            expect(0);
            break;
          case OpFormat::R:
            expect(1);
            inst.rd = reg(0);
            break;
          case OpFormat::RR:
            expect(2);
            inst.rd = reg(0);
            inst.rs1 = reg(1);
            break;
          case OpFormat::RRR:
            expect(3);
            inst.rd = reg(0);
            inst.rs1 = reg(1);
            inst.rs2 = reg(2);
            break;
          case OpFormat::RI:
            expect(2);
            inst.rd = reg(0);
            inst.imm = static_cast<std::uint64_t>(imm(1));
            break;
          case OpFormat::RRI:
            expect(3);
            inst.rd = reg(0);
            inst.rs1 = reg(1);
            inst.imm = static_cast<std::uint64_t>(imm(2));
            break;
          case OpFormat::SS:
            expect(2);
            inst.rs1 = reg(0);
            inst.rs2 = reg(1);
            break;
          case OpFormat::SI:
            expect(2);
            inst.rs1 = reg(0);
            inst.imm = static_cast<std::uint64_t>(imm(1));
            break;
          case OpFormat::S:
            expect(1);
            inst.rs1 = reg(0);
            break;
          case OpFormat::I:
            expect(1);
            inst.imm = static_cast<std::uint64_t>(imm(0));
            break;
          case OpFormat::RM: {
            expect(2);
            inst.rd = reg(0);
            const Operand &m = mem(1);
            inst.rs1 = m.reg;
            inst.imm = static_cast<std::uint64_t>(m.imm);
            break;
          }
          case OpFormat::RA:
            expect(2);
            inst.rd = reg(0);
            inst.rs1 = atomicBase(1);
            break;
          case OpFormat::RAR:
            expect(3);
            inst.rd = reg(0);
            inst.rs1 = atomicBase(1);
            inst.rs2 = reg(2);
            break;
          case OpFormat::Signal: // signal sid, eip, esp
            expect(3);
            inst.rs1 = reg(0);
            inst.rs2 = reg(1);
            inst.rd = reg(2);
            break;
          case OpFormat::Load:    // ld<size>, handled above
          case OpFormat::Store:   // st<size>, handled above
          case OpFormat::Target:  // jmp/call, handled above
          case OpFormat::Cond:    // jcc.<cond>, handled above
          case OpFormat::Compute: // handled above
          case OpFormat::Monitor: // semonitor, handled above
            throw AsmError(lineNo, "unknown mnemonic: " + mnemonic);
        }
        builder.raw(inst);
    }

    // finish() resolves fixups; an unbound label means a typo in the
    // source, so convert the panic into an AsmError for usability.
    try {
        Program prog = builder.finish(base);
        return prog;
    } catch (const SimError &e) {
        throw AsmError(0, e.what());
    }
}

} // namespace misp::isa
