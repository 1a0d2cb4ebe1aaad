#!/usr/bin/env python3
"""Regenerate the generated blocks of docs/RESULTS.md.

A generated block sits between a marker line naming a mispsim command
and an end marker:

    <!-- mispsim scenarios/fig4.scn --md -->
    ...verbatim stdout of `build/mispsim scenarios/fig4.scn --md`...
    <!-- end mispsim -->

Run from the repository root after building:

    python3 tools/results_md.py            # rewrite stale blocks in place
    python3 tools/results_md.py --check    # print a diff, exit 1 if stale

Simulated results are deterministic, so the blocks regenerate byte for
byte on any host and under either execution engine.
"""

import difflib
import re
import subprocess
import sys

RESULTS = "docs/RESULTS.md"
MISPSIM = "build/mispsim"
BLOCK = re.compile(
    r"(<!-- mispsim (?P<args>[^>]*?) -->\n)(?P<body>.*?)(<!-- end mispsim -->)",
    re.S,
)


def regenerate(text):
    def run(match):
        args = [MISPSIM] + match.group("args").split()
        out = subprocess.run(args, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"results_md: '{' '.join(args)}' exited "
                     f"{out.returncode}:\n{out.stderr}")
        return match.group(1) + out.stdout + match.group(4)

    return BLOCK.sub(run, text)


def main():
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit("usage: python3 tools/results_md.py [--check]")
    with open(RESULTS) as f:
        old = f.read()
    if not BLOCK.search(old):
        sys.exit(f"results_md: no generated blocks in {RESULTS}")
    new = regenerate(old)
    if not check:
        if new != old:
            with open(RESULTS, "w") as f:
                f.write(new)
        return 0
    if new == old:
        print(f"{RESULTS}: {len(BLOCK.findall(old))} generated blocks "
              f"up to date")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(True), new.splitlines(True),
        RESULTS, RESULTS + " (regenerated)"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
