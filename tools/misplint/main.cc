/**
 * @file
 * misplint CLI.
 *
 *   misplint --root DIR [--baseline FILE] [--write-baseline FILE]
 *            [paths...]
 *
 * Exit codes: 0 clean (modulo baseline), 1 findings or a stale
 * baseline, 2 usage error.
 *
 * The baseline grandfathers known findings by stable key
 * (file:rule:symbol — no line numbers, so it survives edits above the
 * site). The gate is shrink-only by construction: a *new* finding is
 * not in the baseline and fails; a *fixed* finding makes its baseline
 * entry stale, which also fails until the entry is deleted. The
 * baseline can therefore never grow and never rot.
 */

#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "misplint.hh"

namespace {

int
usage()
{
    std::cerr
        << "usage: misplint [--root DIR] [--baseline FILE]\n"
           "                [--write-baseline FILE] [paths...]\n"
           "  paths default to src/ and tests/ under --root\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    misplint::Options opts;
    std::string baselinePath, writeBaselinePath;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](std::string *dst) {
            if (i + 1 >= argc)
                return false;
            *dst = argv[++i];
            return true;
        };
        if (a == "--root") {
            if (!value(&opts.root))
                return usage();
        } else if (a == "--baseline") {
            if (!value(&baselinePath))
                return usage();
        } else if (a == "--write-baseline") {
            if (!value(&writeBaselinePath))
                return usage();
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "misplint: unknown option " << a << "\n";
            return usage();
        } else {
            paths.push_back(a);
        }
    }
    if (!paths.empty())
        opts.paths = paths;

    misplint::Report report = misplint::run(opts);

    if (!writeBaselinePath.empty()) {
        std::ofstream out(writeBaselinePath);
        if (!out) {
            std::cerr << "misplint: cannot write " << writeBaselinePath
                      << "\n";
            return 2;
        }
        out << "# misplint baseline — grandfathered findings, one\n"
               "# file:rule:symbol key per line. Shrink-only: new\n"
               "# findings fail the gate, fixed findings make their\n"
               "# entry stale, and stale entries fail until removed.\n";
        for (const auto &f : report.findings)
            out << misplint::baselineKey(f) << "\n";
    }

    std::set<std::string> baseline;
    if (!baselinePath.empty()) {
        std::ifstream in(baselinePath);
        if (!in) {
            std::cerr << "misplint: cannot read baseline "
                      << baselinePath << "\n";
            return 2;
        }
        std::string line;
        while (std::getline(in, line)) {
            while (!line.empty() &&
                   (line.back() == '\r' || line.back() == ' '))
                line.pop_back();
            if (line.empty() || line[0] == '#')
                continue;
            baseline.insert(line);
        }
    }

    int live = 0;
    std::set<std::string> matched;
    for (const auto &f : report.findings) {
        std::string key = misplint::baselineKey(f);
        if (baseline.count(key)) {
            matched.insert(key);
            continue;
        }
        std::cout << misplint::format(f) << "\n";
        ++live;
    }

    int stale = 0;
    for (const auto &key : baseline)
        if (!matched.count(key)) {
            std::cout << "baseline: stale entry '" << key
                      << "' — the finding is gone; delete the line\n";
            ++stale;
        }

    std::cerr << "misplint: " << report.filesScanned << " files, "
              << report.archiveClasses << " archive classes, "
              << report.membersChecked << " members checked, "
              << report.suppressed << " annotated, " << live
              << " finding(s)";
    if (!baseline.empty() || stale)
        std::cerr << ", " << matched.size() << " baselined, " << stale
                  << " stale";
    std::cerr << "\n";

    return live || stale ? 1 : 0;
}
