"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/suite/compare.py A.json... -- B.json... [--pairs]

Each argument is a ``result.json`` that ``run.py`` wrote under
``.bench_out/``; A is the parent commit, B the change.  For every
workload and every end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles and one verdict:

* ``within bound`` — B's median is no worse than A's by more than the
  metric's bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the bound, unless every B run reads better than every A
  run.

``--pairs`` treats the i-th A and i-th B run as a pair (run them
alternately) and adds the gain rule: B claims a gain on a metric only
when it wins at least nine tenths of the pairs, ties counting for
neither, and the medians differ by more than A's quartile distance.
The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load(paths: list) -> dict:
    """workload -> metric -> values, in argument order."""
    runs: dict = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        for name, entry in result["metrics"].items():
            runs.setdefault(result["workload"], {}).setdefault(
                name, []).append(entry["value"])
    return runs


def better(a: float, b: float, lower: bool) -> bool:
    """Whether ``b`` reads better than ``a``."""
    return b < a if lower else b > a


def verdict(a: list, b: list, bound: float, lower: bool) -> str:
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse = ((b_med - a_med) if lower else (a_med - b_med)) / abs(a_med)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    if spread > bound and not all(better(x, y, lower)
                                  for x in a for y in b):
        return "unresolved"
    return "regressed" if worse > bound else "within bound"


def gain(a: list, b: list, lower: bool) -> str:
    """The pairs rule: wins in >= 9/10 of pairs and a median shift
    beyond A's own quartile distance."""
    pairs = list(zip(a, b))
    wins = sum(better(x, y, lower) for x, y in pairs)
    a_q1, a_med, a_q3 = quartiles(a)
    shift = abs(statistics.median(b) - a_med)
    claimed = wins >= 0.9 * len(pairs) and shift > a_q3 - a_q1
    return f"{wins}/{len(pairs)} pairs won, " + (
        "gain" if claimed else "no gain claimed")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pairs = "--pairs" in argv
    argv = [arg for arg in argv if arg != "--pairs"]
    cut = argv.index("--") if argv.count("--") == 1 else 0
    if not 0 < cut < len(argv) - 1:
        print("usage: compare.py A.json... -- B.json... [--pairs]",
              file=sys.stderr)
        return 2
    a_runs, b_runs = load(argv[:cut]), load(argv[cut + 1:])
    spec = json.loads(BENCHMARK.read_text())
    regressed = False
    for workload in sorted(set(a_runs) & set(b_runs)):
        print(f"{workload}: {len(next(iter(a_runs[workload].values())))} "
              f"A runs, {len(next(iter(b_runs[workload].values())))} "
              f"B runs")
        for entry in spec["end_to_end"]:
            name, lower = entry["name"], entry["better"] == "lower"
            a, b = a_runs[workload][name], b_runs[workload][name]
            outcome = verdict(a, b, entry["bound"], lower)
            regressed |= outcome == "regressed"
            line = (f"  {name:26s} A {_summary(a)}  B {_summary(b)} "
                    f"{entry['unit']:4s} bound {entry['bound']:.0%}: "
                    f"{outcome}")
            if pairs:
                line += f"; {gain(a, b, lower)}"
            print(line)
    return 1 if regressed else 0


def _summary(values: list) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:11.5g} [{q1:.5g}, {q3:.5g}]"


if __name__ == "__main__":
    sys.exit(main())
