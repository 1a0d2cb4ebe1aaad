#!/usr/bin/env python3
"""Regenerate the generated blocks of docs/RESULTS.md.

A generated block sits between a marker line naming a mispsim command
and an end marker:

    <!-- mispsim scenarios/fig4.scn --md -->
    ...verbatim stdout of `build/mispsim scenarios/fig4.scn --md`...
    <!-- end mispsim -->

The engines block renders the checked-in BENCH_decode_cache.json the
same way:

    <!-- bench BENCH_decode_cache.json -->
    ...engines_table() of the JSON...
    <!-- end bench -->

Run from the repository root after building:

    python3 tools/results_md.py            # rewrite stale blocks in place
    python3 tools/results_md.py --check    # print a diff, exit 1 if stale

Simulated results are deterministic, so the blocks regenerate byte for
byte on any host and under either execution engine; a bench block
changes only with its JSON, so --check catches a table that disagrees
with the JSON it claims to show.
"""

import difflib
import json
import re
import subprocess
import sys

RESULTS = "docs/RESULTS.md"
MISPSIM = "build/mispsim"
BLOCK = re.compile(
    r"(<!-- mispsim (?P<args>[^>]*?) -->\n)(?P<body>.*?)(<!-- end mispsim -->)",
    re.S,
)
ENGINES = "BENCH_decode_cache.json"
BENCH_BLOCK = re.compile(
    r"(<!-- bench " + re.escape(ENGINES) +
    r" -->\n)(?P<body>.*?)(<!-- end bench -->)",
    re.S,
)


def engines_table(j):
    """BENCH_decode_cache.json: median MIPS [IQR] per kernel and engine."""
    p = j["provenance"]
    sha = p["git_sha"][:12] + ("-dirty" if p["git_sha"].endswith("-dirty")
                               else "")
    lines = [
        f"Median host MIPS over {j['reps']} interleaved reps per engine, "
        f"interquartile range in brackets (`{sha}`, "
        f"{p['compiler']}, {p['build_type']}, {p['cpu_model']}):",
        "",
        "| kernel | MIPS ref | MIPS superblock | superblock/ref |",
        "| --- | --- | --- | --- |",
    ]
    for k in j["kernels"]:
        legs = [f"{k[m]:.2f} [{k[m + '_iqr'][0]:.2f}-{k[m + '_iqr'][1]:.2f}]"
                for m in ("mips_ref", "mips_superblock")]
        lines.append(f"| {k['name']} | {legs[0]} | {legs[1]} | "
                     f"{k['speedup_superblock']:.2f}x |")
    return "\n".join(lines) + "\n"


def render_bench(match):
    with open(ENGINES) as f:
        return match.group(1) + engines_table(json.load(f)) + match.group(3)


def regenerate(text):
    def run(match):
        args = [MISPSIM] + match.group("args").split()
        out = subprocess.run(args, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"results_md: '{' '.join(args)}' exited "
                     f"{out.returncode}:\n{out.stderr}")
        return match.group(1) + out.stdout + match.group(4)

    return BENCH_BLOCK.sub(render_bench, BLOCK.sub(run, text))


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
        blocks = len(BLOCK.findall(old)) + len(BENCH_BLOCK.findall(old))
        print(f"{RESULTS}: {blocks} generated blocks up to date")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(True), new.splitlines(True),
        RESULTS, RESULTS + " (regenerated)"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
