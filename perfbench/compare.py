"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files as `perfbench/run.py` writes them to
`perfbench/out/results/` (copy that directory aside after the runs of each
commit). For every workload and metric it prints the median and quartiles
of each side and the ratio of the medians. An end-to-end metric is marked
`worse` when the new median is worse than the base median by more than the
metric's bound in BENCHMARK.json, and `unresolved` when either side's
quartile spread is wider than that bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    rows = {}
    for fn in sorted(os.listdir(path)):
        if not fn.endswith(".json"):
            continue
        with open(os.path.join(path, fn), encoding="utf-8") as fh:
            d = json.load(fh)
        for name, m in d["result"]["metrics"].items():
            rows.setdefault((d["workload"], name), []).append(m["value"])
        share = d["result"]["failed"] / d["result"]["attempted"]
        rows.setdefault((d["workload"], "failed_share"), []).append(share)
    return rows


def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':18s} {'metric':48s} {'n':>5s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'new/base':>9s}")
    for key in sorted(set(base) | set(new)):
        a, b = base.get(key), new.get(key)
        if not a or not b:
            print(f"{key[0]:18s} {key[1]:48s} only on one side")
            continue
        (a1, am, a3), (b1, bm, b3) = summary(a), summary(b)
        ratio = bm / am if am else float("nan")
        verdict = ""
        if key[1] in bounds:
            bound, better = bounds[key[1]]
            worse = (bm - am) / am if better == "lower" else (am - bm) / am
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            sign = 1.0 if better == "lower" else -1.0
            if max(sign * x for x in b) < min(sign * x for x in a):
                verdict = "better in every run"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse > bound else "within bound"
        print(f"{key[0]:18s} {key[1]:48s} {len(a):>2d}/{len(b):<2d} "
              f"{am:12.6g} [{a1:.4g}, {a3:.4g}] {bm:12.6g} [{b1:.4g}, {b3:.4g}] "
              f"{ratio:9.4f} {verdict}")


if __name__ == "__main__":
    main(sys.argv[1:])
