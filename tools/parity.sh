#!/usr/bin/env bash
# Byte-compare mispsim's deterministic artifacts between a base
# revision and the working tree.
#
# Usage: tools/parity.sh <base-ref> [work-dir]
#
# Builds mispsim from <base-ref> (exported with `git archive`, so no
# worktree is registered) and from the working tree, each into
# work-dir (default: a temporary directory, removed on exit). Then runs
# every scenarios/*.scn --quick under --engine=ref and
# --engine=superblock on both builds, each from its own tree, and
# compares:
#   --metrics FILE                the metrics JSON;
#   -o FILE --full-stats          the full JSON, HostScalar keys
#                                 stripped (names read from both trees);
#   --points                      the canonical per-point lines;
#   stdout                        the default tables.
# A non-zero mispsim exit is recorded and compared too. Prints one line
# per scenario and engine and exits 1 on any difference; pass work-dir
# to keep the compared files.
#
# The HostScalar counters themselves are engine control flow, not
# simulated results, so they never fail the check. Under
# --engine=superblock each one is summed over the unstripped full JSON
# on both sides, and a spec whose sums moved gets one informational
# `host counters moved:` line, so a refactor's control-flow drift shows
# in the same run.

set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <base-ref> [work-dir]" >&2
    exit 2
fi
base_ref=$1
root=$(git rev-parse --show-toplevel)
if [ $# -eq 2 ]; then
    work=$(mkdir -p "$2" && cd "$2" && pwd)
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
jobs=$(nproc)

base_src=$work/base-src
rm -rf "$base_src" "$work/base" "$work/head"
mkdir -p "$base_src"
git -C "$root" archive "$base_ref" | tar -x -C "$base_src"

build() { # <src-dir> <build-dir>
    cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release > "$2.log" 2>&1 &&
        cmake --build "$2" -j "$jobs" --target mispsim_cli \
            >> "$2.log" 2>&1 || {
        echo "parity: build of $1 failed; see $2.log" >&2
        exit 1
    }
}
build "$base_src" "$work/base-build"
build "$root" "$work/head-build"

run() { # <side> <tree> <scn> <engine> -> $work/<side>/<scn>.<engine>.*
    local bin=$work/$1-build/mispsim
    local out=$work/$1/$(basename "$3" .scn).$4
    local args=("$3" --quick --jobs 2 --engine="$4")
    mkdir -p "$work/$1"
    cd "$2"
    "$bin" "${args[@]}" --metrics "$out.metrics.json" \
        > "$out.stdout.txt" 2> "$out.stderr.txt" ||
        echo "metrics/stdout run: exit $?" >> "$out.status.txt"
    "$bin" "${args[@]}" --points > "$out.points.txt" 2>> "$out.stderr.txt" ||
        echo "points run: exit $?" >> "$out.status.txt"
    "$bin" "${args[@]}" --full-stats -o "$out.full.json" \
        > /dev/null 2>> "$out.stderr.txt" ||
        echo "full-stats run: exit $?" >> "$out.status.txt"
    cd "$root"
    if [ -f "$out.full.json" ]; then
        python3 "$root/tools/strip_host_stats.py" "$out.full.json" \
            "$out.stats.json" "$root/src" "$base_src/src"
        python3 "$root/tools/strip_host_stats.py" --sums "$out.full.json" \
            "$out.host.txt" "$root/src" "$base_src/src"
        rm -f "$out.full.json"
    fi
}

rc=0
for scn in "$root"/scenarios/*.scn; do
    rel=scenarios/$(basename "$scn")
    if [ ! -f "$base_src/$rel" ]; then
        echo "$rel: not in $base_ref"
        rc=1
        continue
    fi
    for engine in ref superblock; do
        run base "$base_src" "$rel" "$engine"
        run head "$root" "$rel" "$engine"
        name=$(basename "$rel" .scn).$engine
        same=yes
        for kind in metrics.json stats.json points.txt stdout.txt \
                    status.txt; do
            a=$work/base/$name.$kind
            b=$work/head/$name.$kind
            [ -e "$a" ] || [ -e "$b" ] || continue
            if ! cmp -s "$a" "$b"; then
                echo "$rel --engine=$engine: $kind differs" \
                     "($a vs $b)"
                same=no
                rc=1
            fi
        done
        [ "$same" = yes ] &&
            echo "$rel --engine=$engine: identical"
        a=$work/base/$name.host.txt
        b=$work/head/$name.host.txt
        if [ "$engine" = superblock ] && [ -f "$a" ] && [ -f "$b" ] &&
            ! cmp -s "$a" "$b"; then
            echo "$rel --engine=$engine: host counters moved:" \
                "$(LC_ALL=C join -a1 -a2 -e0 -o0,1.2,2.2 "$a" "$b" |
                    awk '$2 != $3 { printf "%s%s %s -> %s", s, $1, $2, $3; s = ", " }')"
        fi
    done
done
if [ $rc -eq 0 ]; then
    echo "parity: every artifact identical to $base_ref"
else
    echo "parity: differences against $base_ref" >&2
fi
exit $rc
