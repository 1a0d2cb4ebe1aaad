#!/usr/bin/env python3
"""Delete the HostScalar counters from a `mispsim --full-stats -o` JSON.

Usage: strip_host_stats.py IN OUT [SRC_DIR ...]
       strip_host_stats.py --sums IN OUT [SRC_DIR ...]

HostScalar counters (decode-cache hits, continued slices, ...) are
host-engine internals that differ by design between engines and
builds; everything else in the stats tree is simulated and must match
byte for byte. The counter names are read from each HostScalar
member's constructor under every SRC_DIR (default: src), so passing
two trees' src/ strips the names either tree declares. OUT is written
with sorted keys, ready for diff.

With --sums, OUT instead gets one `name sum` line per HostScalar name,
sorted: the counter summed over every sequencer in IN, so two runs'
engine control flow can be compared at a glance.
"""

import glob
import json
import re
import sys


def host_names(src_dir):
    text = "".join(open(p).read() for p in
                   glob.glob(src_dir + "/**/*.[ch][ch]", recursive=True))
    members = re.findall(r"HostScalar (\w+)_;", text)
    names = {n for m in members
             for n in re.findall(m + r'_\(&\w+,\s*"([^"]+)"', text)}
    assert members and len(names) == len(members), (src_dir, members,
                                                     names)
    return names


def strip(x, names):
    if isinstance(x, dict):
        return {k: strip(v, names) for k, v in x.items() if k not in names}
    if isinstance(x, list):
        return [strip(v, names) for v in x]
    return x


def sums(x, names, out):
    if isinstance(x, dict):
        for k, v in x.items():
            if k in names:
                out[k] = out.get(k, 0) + v
            else:
                sums(v, names, out)
    elif isinstance(x, list):
        for v in x:
            sums(v, names, out)
    return out


def main(argv):
    summing = len(argv) > 1 and argv[1] == "--sums"
    if summing:
        argv = argv[:1] + argv[2:]
    if len(argv) < 3:
        sys.exit(__doc__)
    names = set()
    for src_dir in argv[3:] or ["src"]:
        names |= host_names(src_dir)
    with open(argv[1]) as f:
        doc = json.load(f)
    with open(argv[2], "w") as f:
        if summing:
            totals = sums(doc, names, {})
            f.writelines("%s %d\n" % (k, totals[k]) for k in sorted(totals))
        else:
            json.dump(strip(doc, names), f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv)
