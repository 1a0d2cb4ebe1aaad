/**
 * @file
 * The `mispsim` CLI surface as data: one registry of flags and one of
 * exit codes, from which the --help text is *rendered*, so the help
 * cannot drift from the registries and the exit-code table exists in
 * exactly one place. tests/test_trace.cc's help audit reads the flag
 * literals tools/mispsim.cc's parser matches and compares them with
 * the registry both ways: a flag added to the parser but not the
 * registry, or the reverse, fails it.
 */

#ifndef MISP_DRIVER_CLI_HELP_HH
#define MISP_DRIVER_CLI_HELP_HH

#include <string>
#include <vector>

namespace misp::driver {

/** One CLI flag: its usage spec ("-o FILE", "--jobs N", "-h, --help")
 *  and a '\n'-separated description (continuation lines are indented
 *  by the renderer). */
struct CliFlag {
    const char *spec;
    const char *help;
};

/** One documented exit code. */
struct CliExitCode {
    int code;
    const char *help;
};

/** Every flag `mispsim` accepts, in help order. */
const std::vector<CliFlag> &mispsimFlags();

/** Every exit code `mispsim` can return, in ascending order. */
const std::vector<CliExitCode> &mispsimExitCodes();

/** The flag *names* the registry declares — "-o", "--jobs", aliases
 *  split out ("-h" and "--help" are two entries), "=" value suffixes
 *  stripped ("--engine=E" contributes "--engine"). The help-audit
 *  test walks this list against the rendered usage text and the
 *  parser. */
std::vector<std::string> mispsimFlagNames();

/** Render the full `mispsim --help` text from the registries. */
std::string mispsimUsage(const char *argv0);

} // namespace misp::driver

#endif // MISP_DRIVER_CLI_HELP_HH
