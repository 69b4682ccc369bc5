#!/usr/bin/env python3
"""Compare or record the deterministic counters of the bench smokes.

Usage:
  smoke_counters.py check-scale WANT.json GOT.json
      Diff every deterministic value of a bench_scale output (GOT, from
      `bench_scale [--smoke] --out GOT.json`) against the committed file
      WANT (BENCH_scale_smoke.json or BENCH_scale.json).
  smoke_counters.py check-e2e WANT.json [DIR]
      Diff each workload's deterministic metrics in DIR/e2e-smoke-W.json
      (from `bench_e2e --workload W --seed 1 --smoke --out ...`) against
      the committed BENCH_e2e_smoke.json.
  smoke_counters.py write-e2e OUT.json [DIR]
      Record the same metrics of the four workloads' smoke outputs in DIR
      into OUT, the form check-e2e reads.

DIR defaults to the current directory. A check prints every difference,
or "N deterministic values match", and exits 1 if any value differs.

Left out of bench_scale's comparison, by name: keys ending _s or _pct
(wall clock), speedup, the artifact path observability.trace_json, and
multicast_window's threaded frame counters. Left out of bench_e2e's:
every metric the result does not list as deterministic, and alloc.*
(allocation counts depend on the toolchain's standard library).
"""
import json
import os
import sys

SCALE_THREADED = {"data_frames", "coalesced", "frames_shared", "retransmits",
                  "queue_high_watermark"}
E2E_WORKLOADS = ("fanout", "churn", "many_objects", "soak")


def leaves(value, path):
    if isinstance(value, dict):
        for key, v in value.items():
            yield from leaves(v, path + [key])
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, path + [str(i)])
    else:
        yield path, value


def scale_compared(path):
    key = path[-1]
    return not (key.endswith(("_s", "_pct")) or key == "speedup"
                or path == ["observability", "trace_json"]
                or (path[0] == "multicast_window" and key in SCALE_THREADED))


def scale_counters(file):
    return {".".join(p): v for p, v in leaves(json.load(open(file)), [])
            if scale_compared(p)}


def e2e_counters(directory, workload):
    result = json.load(open(os.path.join(directory,
                                         f"e2e-smoke-{workload}.json")))
    values = {**result["end_to_end"], **result["per_layer"]}
    return {k: values[k]["value"] for k in result["deterministic"]
            if not k.startswith("alloc.")}


def diff(want, got, prefix=""):
    return [f"{prefix}{k}: want {want.get(k, '(absent)')}, "
            f"got {got.get(k, '(absent)')}"
            for k in sorted(want.keys() | got.keys())
            if want.get(k, ()) != got.get(k, ())]


def report(diffs, compared):
    print("\n".join(diffs) or f"{compared} deterministic values match")
    return 1 if diffs else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "check-scale":
        want, got = scale_counters(argv[1]), scale_counters(argv[2])
        return report(diff(want, got), len(want))
    if len(argv) in (2, 3) and argv[0] in ("check-e2e", "write-e2e"):
        directory = argv[2] if len(argv) == 3 else "."
        if argv[0] == "write-e2e":
            out = {w: e2e_counters(directory, w) for w in E2E_WORKLOADS}
            with open(argv[1], "w") as f:
                json.dump(out, f, indent=1, sort_keys=True)
                f.write("\n")
            return 0
        want = json.load(open(argv[1]))
        diffs = []
        for w, wanted in want.items():
            diffs += diff(wanted, e2e_counters(directory, w), f"{w}.")
        return report(diffs, sum(map(len, want.values())))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
