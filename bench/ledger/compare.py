#!/usr/bin/env python3
"""Compare ledger runs of a parent commit against runs of a change.

    python3 bench/ledger/compare.py PARENT.json... --change CHANGE.json...

Each file is a report written by `ledger -o FILE`, or a file holding
several reports under "runs" (such as bench/ledger/baseline.json). Run i
of the parent is paired with run i of the change, so make the runs in
alternating order (P1 C1 C2 P2 P3 C3 ...): slow drift in host load then
hits both sides alike. Use the same benchmark code, seed and run length on
both sides.

Each run contributes, per workload, the value the ledger reports for every
end-to-end metric (times at the reference host speed; see "Estimators" in
bench/ledger/README.md). Per workload and metric the verdict is:

  improved    over at least 10 pairs, the change wins at least 9 in 10
              (ties count for neither) and the medians differ by more
              than the parent's interquartile range
  unresolved  the parent's interquartile range is wider than the metric's
              bound, unless every change run beats every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  unchanged   otherwise

fail_frac regresses whenever it rises. Every ratio is printed with its
base. The exit status is 1 when anything regressed.
"""

import argparse
import json
import statistics
import sys

MIN_PAIRS = 10  # fewer pairs cannot support a claimed gain


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        runs.extend(doc["runs"] if "runs" in doc else [doc])
    return runs


def spread(values):
    """Interquartile range as statistics.quantiles(n=4) gives it."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(metric, parent, change):
    """Classify one (workload, metric) cell; returns (verdict, detail)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(c, p):
        return c < p if lower else c > p

    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    pm, cm = statistics.median(parent), statistics.median(change)
    iqr = spread(parent)
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    everyone_better = all(better(c, p) for c in change for p in parent)
    detail = (f"{cm / pm:.3f}x of {pm:.6g} {metric['unit']}"
              f" (IQR {iqr:.3g}, wins {wins}/{len(pairs)})")
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and abs(cm - pm) > iqr and better(cm, pm)):
        return "improved", detail
    if iqr > bound * pm and not everyone_better:
        return "unresolved", detail
    if worse > bound:
        return "regressed", detail
    return "unchanged", detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="+", help="reports of the parent")
    ap.add_argument("--change", nargs="+", required=True,
                    help="reports of the change")
    args = ap.parse_args()
    parent, change = load_runs(args.parent), load_runs(args.change)
    n = min(len(parent), len(change))
    if len(parent) != len(change):
        print(f"note: {len(parent)} parent vs {len(change)} change runs; "
              f"pairing the first {n}", file=sys.stderr)
    parent, change = parent[:n], change[:n]
    metrics = parent[0]["end_to_end"]
    if metrics != change[0]["end_to_end"]:
        sys.exit("the two sides were measured with different metric sets")

    regressed = False
    workloads = [w for w in parent[0]["workloads"]
                 if all(w in r["workloads"] for r in parent + change)]
    if n < MIN_PAIRS:
        print(f"note: {n} pair(s); a gain needs at least {MIN_PAIRS}",
              file=sys.stderr)
    print(f"{n} pair(s); seed {parent[0]['config']['seed']}; "
          f"parent {parent[0]['env']['git_sha'][:12]}, "
          f"change {change[0]['env']['git_sha'][:12]}")
    for w in workloads:
        cells = []
        for m in metrics:
            pv = [r["workloads"][w]["e2e"][m["name"]]["value"] for r in parent]
            cv = [r["workloads"][w]["e2e"][m["name"]]["value"] for r in change]
            v, detail = verdict(m, pv, cv)
            regressed |= v == "regressed"
            cells.append(f"{m['name']}={v} {detail}")
        pf = [r["workloads"][w]["failed"] for r in parent]
        cf = [r["workloads"][w]["failed"] for r in change]
        pa = sum(r["workloads"][w]["attempted"] for r in parent)
        ca = sum(r["workloads"][w]["attempted"] for r in change)
        rose = sum(cf) / ca > sum(pf) / pa
        regressed |= rose
        cells.append(f"fail_frac={'regressed' if rose else 'unchanged'} "
                     f"{sum(cf)}/{ca} vs {sum(pf)}/{pa} points")
        print(f"{w:<10} " + "; ".join(cells))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
