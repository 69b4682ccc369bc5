#!/usr/bin/env python3
"""Compare two sets of bench_e2e result files (written with --out).

    compare.py --base parent/*.json --change change/*.json
    compare.py --same --base setA/*.json --change setB/*.json

Files are paired by (workload, seed); both sides must hold the same pairs
and the same `checked` build flag, or nothing is compared. For every
workload and metric the table gives each side's median and quartiles, the
share of pairs the change wins (ties count for neither side) and a
verdict:

  improved      the change wins at least 9 of 10 pairs and the medians
                differ by more than the base side's quartile distance
  worse         the change median is worse than the base median by more
                than the metric's bound
  unresolved    the base side's own spread (quartile distance / median)
                exceeds the bound, and not every change run beats every
                base run
  within bound  otherwise

Bounds and directions come from BENCHMARK.json (end-to-end metrics carry
a bound; per-layer metrics only a direction, and get a verdict only when
both sides are identical). --same checks that two sets of runs of the same
code agree: every end-to-end median within its bound, and every
deterministic metric identical between files of the same (workload, seed).
Exit status 1 when a --same check fails or the sets cannot be compared.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_BENCH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths):
    """{workload: {seed: [result, ...]}} in the order given."""
    out = defaultdict(lambda: defaultdict(list))
    for p in paths:
        r = json.loads(Path(p).read_text())
        out[r["workload"]][r["seed"]].append(r)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(results, name):
    vals = []
    for r in results:
        for section in ("end_to_end", "per_layer"):
            if name in r.get(section, {}):
                vals.append(r[section][name]["value"])
    return vals


def verdict(base, change, better, bound):
    """Verdict for one metric; `bound` None means no bound."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    share = wins / len(pairs) if pairs else 0.0
    if base == change:
        return share, "identical"
    if bound is None:
        return share, "-"
    q1, mb, q3 = quartiles(base)
    mc = statistics.median(change)
    if share >= 0.9 and sign * (mc - mb) > q3 - q1:
        return share, "improved"
    if mb != 0 and sign * (mb - mc) / abs(mb) > bound:
        return share, "worse"
    spread = (q3 - q1) / abs(mb) if mb else 0.0
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    if spread > bound and not all_better:
        return share, "unresolved"
    return share, "within bound"


def main():
    p = argparse.ArgumentParser(
        description="Compare two sets of bench_e2e result files.")
    p.add_argument("--base", nargs="+", required=True, help="parent / set A")
    p.add_argument("--change", nargs="+", required=True, help="change / set B")
    p.add_argument("--same", action="store_true",
                   help="both sets come from the same code: check agreement")
    p.add_argument("--bench", default=str(DEFAULT_BENCH),
                   help="BENCHMARK.json with the bounds")
    args = p.parse_args()

    bench = json.loads(Path(args.bench).read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = load(args.base), load(args.change)

    problems = []
    flags = {r["checked"] for side in (base, change) for seeds in side.values()
             for rs in seeds.values() for r in rs}
    if len(flags) > 1:
        problems.append("results mix checked and unchecked builds")
    for w in sorted(set(base) | set(change)):
        b_seeds = {s: len(rs) for s, rs in base.get(w, {}).items()}
        c_seeds = {s: len(rs) for s, rs in change.get(w, {}).items()}
        if b_seeds != c_seeds:
            problems.append(f"{w}: the sides hold different seeds "
                            f"({sorted(b_seeds)} vs {sorted(c_seeds)})")
    if problems:
        for msg in problems:
            print(f"refused: {msg}", file=sys.stderr)
        return 1

    def cell(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    def spread(q):
        return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0

    failed = False
    print(f"{'workload':<13} {'metric':<34} {'base median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':>5}  verdict")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for w in sorted(base):
        seeds = sorted(base[w])
        b_runs = [r for s in seeds for r in base[w][s]]
        c_runs = [r for s in seeds for r in change[w][s]]
        for name in names:
            bv, cv = metric_values(b_runs, name), metric_values(c_runs, name)
            if not bv or len(bv) != len(cv):
                continue
            bq, cq = quartiles(bv), quartiles(cv)
            share, v = verdict(bv, cv, better.get(name, "lower"),
                               bounds.get(name))
            if args.same and name in bounds:
                # Same code: the medians must agree within the bound, and
                # (set-up time aside) each set's own spread must fit in it.
                bound = bounds[name]
                drift = abs(cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
                v = "agree"
                if drift > bound:
                    v = f"DISAGREE (medians {drift:.1%} apart)"
                elif name != "setup_s" and max(spread(bq), spread(cq)) > bound:
                    v = f"SPREAD {max(spread(bq), spread(cq)):.1%} > bound"
                failed |= v != "agree"
            print(f"{w:<13} {name:<34} {cell(bq):<36} {cell(cq):<36} "
                  f"{share:>5.0%}  {v}")
        if args.same:
            for s in seeds:
                for rb, rc in zip(base[w][s], change[w][s]):
                    for name in rb.get("deterministic", []):
                        vb, vc = metric_values([rb], name), metric_values([rc], name)
                        if vb != vc:
                            failed = True
                            print(f"{w:<13} {name:<34} seed {s}: deterministic "
                                  f"metric differs ({vb} vs {vc})")
    if args.same:
        print("same-code check:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
