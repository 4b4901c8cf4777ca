"""Compare two sets of benchmark results.

Each side is a JSONL file (or a directory of them) that ``run.py --out``
wrote.  For every workload and metric the tool prints each side's median
and quartiles and a verdict against the bound in ``BENCHMARK.json``:

* ``regressed``: B's median is worse than A's by more than the bound;
* ``unresolved``: otherwise, when A's own spread (quartile distance over
  median) is wider than the bound and not every run of B beats every run
  of A;
* ``improved``: B wins at least nine tenths of the pairs and the medians
  differ by more than A's quartile distance;
* ``unchanged``: anything else.

It also prints the per-layer ``*.self_s`` medians and their deltas, and
every seed whose ``sim_digest`` differs between the sides::

    python3 simbench/compare.py before.jsonl after.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    """Every record in a JSONL file, or in every ``*.jsonl`` of a directory."""
    root = Path(path)
    files = sorted(root.glob("*.jsonl")) if root.is_dir() else [root]
    records = []
    for file in files:
        with open(file) as lines:
            records += [json.loads(line) for line in lines if line.strip()]
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def group(records: list[dict]) -> dict:
    """(workload, metric) -> [(seed, value)] over every record."""
    out: dict = defaultdict(list)
    for record in records:
        stamp = record["stamp"]
        for name, metric in record["metrics"].items():
            out[(stamp["workload"], name)].append((stamp["seed"],
                                                   metric["value"]))
    return out


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> str:
    """Classify B against A by the rules in the module docstring."""
    sign = 1.0 if lower_is_better else -1.0
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    if med_a == 0:
        return "unchanged" if med_b == 0 else "unresolved"
    worse_by = sign * (med_b - med_a) / abs(med_a)
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if worse_by > bound:
        return "regressed"
    if (q3 - q1) / abs(med_a) > bound and not b_beats_all:
        return "unresolved"
    pairs = [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if wins >= 0.9 * len(pairs) and abs(med_b - med_a) > (q3 - q1):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline results (JSONL file or directory)")
    parser.add_argument("b", help="candidate results (JSONL file or directory)")
    parser.add_argument("--benchmark", default=str(BENCHMARK))
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    records_a, records_b = load(args.a), load(args.b)
    side_a, side_b = group(records_a), group(records_b)

    print(f"{'workload':16s} {'metric':22s} {'A q1/med/q3':>32s} "
          f"{'B q1/med/q3':>32s}  verdict")
    regressed = False
    for key in sorted(set(side_a) & set(side_b)):
        workload, name = key
        if name not in bounds:
            continue
        a = [v for _, v in side_a[key]]
        b = [v for _, v in side_b[key]]
        metric = bounds[name]
        word = verdict(a, b, metric["bound"], metric["better"] == "lower")
        regressed |= word == "regressed"
        fa = "/".join(f"{v:.4g}" for v in quartiles(a))
        fb = "/".join(f"{v:.4g}" for v in quartiles(b))
        print(f"{workload:16s} {name:22s} {fa:>32s} {fb:>32s}  {word}"
              f"  [{metric['unit']}, bound {metric['bound']}]")

    print("\nper-layer self time (median s, B - A):")
    for key in sorted(set(side_a) & set(side_b)):
        workload, name = key
        if not name.endswith(".self_s"):
            continue
        med_a = statistics.median(v for _, v in side_a[key])
        med_b = statistics.median(v for _, v in side_b[key])
        print(f"  {workload:16s} {name:22s} {med_a:9.4f} -> {med_b:9.4f}"
              f"  ({med_b - med_a:+.4f})")

    digests_a = {(r["stamp"]["workload"], r["stamp"]["seed"]): r["sim_digest"]
                 for r in records_a}
    changed = [(key, digests_a[key], r["sim_digest"]) for r in records_b
               for key in [(r["stamp"]["workload"], r["stamp"]["seed"])]
               if key in digests_a and digests_a[key] != r["sim_digest"]]
    print("\nsim_digest:", "identical on every shared seed" if not changed
          else "CHANGED")
    for (workload, seed), before, after in sorted(set(changed)):
        print(f"  {workload} seed {seed}: {before} -> {after}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
