#include "isa.hh"

#include <cstring>
#include <iterator>
#include <sstream>

namespace misp::isa {

std::array<std::uint8_t, kInstBytes>
encode(const Instruction &inst)
{
    std::array<std::uint8_t, kInstBytes> bytes{};
    bytes[0] = static_cast<std::uint8_t>(inst.op);
    bytes[1] = inst.rd;
    bytes[2] = inst.rs1;
    bytes[3] = inst.rs2;
    bytes[4] = inst.sub;
    // bytes[5..7] reserved
    std::memcpy(&bytes[8], &inst.imm, 8);
    return bytes;
}

bool
decode(const std::uint8_t bytes[kInstBytes], Instruction *out)
{
    if (bytes[0] >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
        return false;
    out->op = static_cast<Opcode>(bytes[0]);
    out->rd = bytes[1];
    out->rs1 = bytes[2];
    out->rs2 = bytes[3];
    out->sub = bytes[4];
    std::memcpy(&out->imm, &bytes[8], 8);
    if (out->rd >= kNumRegs || out->rs1 >= kNumRegs || out->rs2 >= kNumRegs)
        return false;
    if (out->op == Opcode::Jcc && out->sub >= kNumConds)
        return false;
    if ((out->op == Opcode::Ld || out->op == Opcode::St) &&
        !accessSize(out->sub))
        return false;
    return true;
}

bool
privileged(Opcode op)
{
    (void)op;
    return false;
}

const char *
opcodeName(Opcode op)
{
    return op < Opcode::NumOpcodes ? opInfo(op).name : "???";
}

bool
opcodeFromName(const std::string &name, Opcode *out)
{
    for (std::size_t i = 0; i < std::size(kOpTable); ++i) {
        if (name == kOpTable[i].name) {
            *out = static_cast<Opcode>(i);
            return true;
        }
    }
    return false;
}

const char *
condName(Cond cond)
{
    switch (cond) {
      case Cond::Eq: return "eq";
      case Cond::Ne: return "ne";
      case Cond::Lt: return "lt";
      case Cond::Le: return "le";
      case Cond::Gt: return "gt";
      case Cond::Ge: return "ge";
      case Cond::Ult: return "ult";
      case Cond::Uge: return "uge";
    }
    return "??";
}

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream os;
    auto reg = [](unsigned r) { return "r" + std::to_string(r); };
    const auto simm = static_cast<std::int64_t>(inst.imm);
    os << opcodeName(inst.op);
    if (inst.op >= Opcode::NumOpcodes)
        return os.str();
    switch (opInfo(inst.op).format) {
      case OpFormat::None:
        break;
      case OpFormat::R:
        os << " " << reg(inst.rd);
        break;
      case OpFormat::RR:
        os << " " << reg(inst.rd) << ", " << reg(inst.rs1);
        break;
      case OpFormat::RRR:
        os << " " << reg(inst.rd) << ", " << reg(inst.rs1) << ", "
           << reg(inst.rs2);
        break;
      case OpFormat::RI:
        os << " " << reg(inst.rd) << ", " << simm;
        break;
      case OpFormat::RRI:
        os << " " << reg(inst.rd) << ", " << reg(inst.rs1) << ", " << simm;
        break;
      case OpFormat::SS:
        os << " " << reg(inst.rs1) << ", " << reg(inst.rs2);
        break;
      case OpFormat::SI:
        os << " " << reg(inst.rs1) << ", " << simm;
        break;
      case OpFormat::S:
        os << " " << reg(inst.rs1);
        break;
      case OpFormat::I:
        os << " " << inst.imm;
        break;
      case OpFormat::RM:
        os << " " << reg(inst.rd) << ", [" << reg(inst.rs1) << "+" << simm
           << "]";
        break;
      case OpFormat::Load:
        os << int(inst.sub) << " " << reg(inst.rd) << ", [" << reg(inst.rs1)
           << "+" << simm << "]";
        break;
      case OpFormat::Store:
        os << int(inst.sub) << " [" << reg(inst.rs1) << "+" << simm
           << "], " << reg(inst.rs2);
        break;
      case OpFormat::RA:
        os << " " << reg(inst.rd) << ", [" << reg(inst.rs1) << "]";
        break;
      case OpFormat::RAR:
        os << " " << reg(inst.rd) << ", [" << reg(inst.rs1) << "], "
           << reg(inst.rs2);
        break;
      case OpFormat::Target:
        os << " 0x" << std::hex << inst.imm;
        break;
      case OpFormat::Cond:
        os << "." << condName(static_cast<Cond>(inst.sub)) << " 0x"
           << std::hex << inst.imm;
        break;
      case OpFormat::Compute:
        os << " " << inst.imm;
        if (inst.rs1 != 0)
            os << " + " << reg(inst.rs1);
        break;
      case OpFormat::Signal:
        os << " sid=" << reg(inst.rs1) << ", eip=" << reg(inst.rs2)
           << ", esp=" << reg(inst.rd);
        break;
      case OpFormat::Monitor:
        os << " scenario=" << int(inst.sub) << ", handler=0x" << std::hex
           << inst.imm;
        break;
    }
    return os.str();
}

} // namespace misp::isa
