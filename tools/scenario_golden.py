#!/usr/bin/env python3
"""Golden --metrics digests of every checked-in scenario.

Runs `mispsim scenarios/<name>.scn --quick --jobs 2 --engine=E
--metrics FILE` for every spec under scenarios/ and both engines (ref,
superblock), and compares the sha256 of each metrics file against
tests/scenario_golden.json. Any simulated drift -- a tick, an event
count, a validation bit -- changes a digest, so the check fails without
building a second tree to compare against.

Usage (from anywhere; paths resolve against the repo root):

    python3 tools/scenario_golden.py build/mispsim           # check
    python3 tools/scenario_golden.py build/mispsim --write   # regenerate

Regenerate only when a change alters simulated results on purpose, and
say which digests moved and why in the change description. Exits 1 on
a mismatch, a missing or extra spec, or a non-zero mispsim exit.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "scenario_golden.json")
ENGINES = ("ref", "superblock")


def digests(mispsim):
    specs = sorted(f for f in os.listdir(os.path.join(ROOT, "scenarios"))
                   if f.endswith(".scn"))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in specs:
            for engine in ENGINES:
                key = "%s.%s" % (spec[:-len(".scn")], engine)
                metrics = os.path.join(tmp, key + ".json")
                proc = subprocess.run(
                    [mispsim, os.path.join("scenarios", spec), "--quick",
                     "--jobs", "2", "--engine=" + engine,
                     "--metrics", metrics],
                    cwd=ROOT, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit("scenario_golden: %s exited %d"
                                     % (key, proc.returncode))
                with open(metrics, "rb") as f:
                    out[key] = hashlib.sha256(f.read()).hexdigest()
    return out


def main(argv):
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] != "--write"):
        raise SystemExit("usage: %s <mispsim> [--write]" % argv[0])
    mispsim = os.path.abspath(argv[1])
    got = digests(mispsim)
    if len(argv) == 3:
        with open(GOLDEN, "w") as f:
            json.dump({"engines": list(ENGINES), "digests": got}, f,
                      indent=2, sort_keys=True)
            f.write("\n")
        print("scenario_golden: wrote %d digests to %s"
              % (len(got), os.path.relpath(GOLDEN, ROOT)))
        return 0
    with open(GOLDEN) as f:
        want = json.load(f)["digests"]
    bad = 0
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            print("scenario_golden: %s: expected %s, got %s"
                  % (key, want.get(key, "(no golden)"),
                     got.get(key, "(no spec)")))
            bad += 1
    if bad:
        print("scenario_golden: %d of %d digests differ; if the change "
              "is meant to move simulated results, rerun with --write"
              % (bad, len(want)))
        return 1
    print("scenario_golden: %d digests match" % len(got))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
