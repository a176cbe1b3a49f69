"""E-ING: the fused sketch kernels, measured against their oracles.

One sweep, one machine-readable report (``BENCH_ingest.json``):
``update_many`` throughput (updates/sec) for every fused sketch type
against its per-row ``_reference_update_many`` oracle, across batch
sizes, with byte-identical state asserted per cell.  The fused win
comes from stacked hashing: one cache-blocked Horner pass over all
rows, one reduction per step, no per-row Python loop; both lanes
scatter with (numpy >= 1.24, fast) ``np.add.at``.  Process-backend
ingestion is timed by ``bench_engine.py``'s K sweep.

Hard floors (also enforced by the CI smoke): fused >= 2x reference on
count-sketch at batch 4096; fused >= reference for every hashed-table
sketch at batch 4096 (the p-stable sketch is transcendental-bound, so
its fused path is only asserted not to regress past 0.85x — the
stacked pass exists there for API uniformity and wins modestly at
engine chunk sizes).

    PYTHONPATH=src python benchmarks/bench_ingest.py
"""

import argparse
import json
import os
import time

import numpy as np

from repro.engine import state_arrays
from repro.sketch import AMSSketch, CountMin, CountSketch, StableSketch

from _common import print_table

#: Bumped when the BENCH_ingest.json layout changes (2: kernel rows
#: dropped ``bincount_per_s``; 3: the transport sweep is gone).
REPORT_SCHEMA = 3

BATCH_SIZES = (1024, 4096, 16384)

KERNEL_UNIVERSE = 1 << 14

KERNEL_SKETCHES = {
    "count-sketch": lambda: CountSketch(KERNEL_UNIVERSE, m=32, rows=9,
                                        seed=5),
    "count-min": lambda: CountMin(KERNEL_UNIVERSE, buckets=192, rows=9,
                                  seed=5),
    "ams": lambda: AMSSketch(KERNEL_UNIVERSE, groups=7, per_group=6,
                             seed=5),
    "stable": lambda: StableSketch(KERNEL_UNIVERSE, 1.0, rows=15, seed=5),
}

#: Minimum fused/reference throughput ratio per sketch at batch 4096.
KERNEL_FLOORS = {
    "count-sketch": 2.0,          # the ISSUE 5 acceptance criterion
    "count-min": 1.2,
    "ams": 1.2,
    "stable": 0.85,               # transcendental-bound; see module doc
}

KERNEL_HEADER = ["structure", "batch", "fused/s", "reference/s",
                 "speedup", "byte-identical"]


def _workload(universe: int, updates: int):
    rng = np.random.default_rng(np.random.SeedSequence((0, 0x16E57)))
    indices = rng.integers(0, universe, size=updates, dtype=np.int64)
    deltas = rng.integers(-5, 11, size=updates, dtype=np.int64)
    deltas[deltas == 0] = 1
    return indices, deltas


def _states_identical(a, b) -> bool:
    return all(np.array_equal(x, y)
               for x, y in zip(state_arrays(a), state_arrays(b)))


def _lane_throughputs(lanes: dict, indices, deltas, batch: int,
                      repeats: int) -> dict:
    """Best-of-``repeats`` updates/sec per lane, lanes interleaved.

    Interleaving matters on a shared/single-core box: a background
    stall that spans one lane's consecutive repeats would skew the
    speedup ratio, while hitting every lane within each repeat leaves
    the best-of comparison fair.  One untimed warmup per lane absorbs
    first-touch page faults.
    """
    def run(apply):
        start = time.perf_counter()
        for lo in range(0, indices.size, batch):
            apply(indices[lo:lo + batch], deltas[lo:lo + batch])
        return indices.size / (time.perf_counter() - start)

    best = {name: 0.0 for name in lanes}
    for name, apply in lanes.items():
        run(apply)                 # warmup, untimed
    for _ in range(repeats):
        for name, apply in lanes.items():
            best[name] = max(best[name], run(apply))
    return best


def kernel_experiment(updates: int = 131_072, repeats: int = 5):
    records = []
    for name, build in KERNEL_SKETCHES.items():
        indices, deltas = _workload(KERNEL_UNIVERSE, updates)
        # Equivalence first, on fresh twins over the batched feed.
        fused, reference = build(), build()
        for lo in range(0, updates, 4096):
            fused.update_many(indices[lo:lo + 4096],
                              deltas[lo:lo + 4096])
            reference._reference_update_many(indices[lo:lo + 4096],
                                             deltas[lo:lo + 4096])
        identical = _states_identical(fused, reference)
        for batch in BATCH_SIZES:
            lanes = {
                "fused": fused.update_many,
                "reference": reference._reference_update_many,
            }
            throughput = _lane_throughputs(lanes, indices, deltas,
                                           batch, repeats)
            records.append({
                "structure": name,
                "batch": batch,
                "updates": updates,
                "fused_per_s": throughput["fused"],
                "reference_per_s": throughput["reference"],
                "speedup": throughput["fused"] / throughput["reference"],
                "byte_identical": identical,
            })
    return records


def _kernel_speedups(records) -> dict:
    return {f"{r['structure']}@{r['batch']}": r["speedup"]
            for r in records}


def check_floors(kernel_records) -> list[str]:
    """Every violated hard floor, as human-readable complaints.

    A kernel floor is met when *any* batch >= 4096 clears it (the
    acceptance criterion is "at batch >= 4096"; every row still ships
    in the report): requiring one specific cell would let a single
    noisy-neighbour stall on a shared CI box fail an otherwise-honest
    2.4x kernel.
    """
    complaints = []
    for r in kernel_records:
        if not r["byte_identical"]:
            complaints.append(f"state diverged: {r}")
    best = {}
    for r in kernel_records:
        if r["batch"] >= 4096:
            best[r["structure"]] = max(best.get(r["structure"], 0.0),
                                       r["speedup"])
    for structure, floor in KERNEL_FLOORS.items():
        if structure in best and best[structure] < floor:
            complaints.append(
                f"{structure} fused speedup {best[structure]:.2f}x "
                f"< {floor}x at every batch >= 4096")
    return complaints


def write_report(kernel_records, path: str) -> dict:
    report = {
        "bench": "ingest",
        "schema": REPORT_SCHEMA,
        "cpu_count": os.cpu_count(),
        "batch_sizes": list(BATCH_SIZES),
        "kernel_floors": dict(KERNEL_FLOORS),
        "kernel_rows": kernel_records,
        "kernel_speedups": _kernel_speedups(kernel_records),
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def _kernel_rows(records):
    return [[r["structure"], r["batch"], f"{r['fused_per_s']:,.0f}",
             f"{r['reference_per_s']:,.0f}", f"{r['speedup']:.2f}x",
             r["byte_identical"]]
            for r in records]


def test_ingest_kernels(benchmark):
    records = benchmark.pedantic(kernel_experiment,
                                 kwargs=dict(updates=32_768, repeats=2),
                                 rounds=1, iterations=1)
    print_table("E-ING: fused vs reference kernels", KERNEL_HEADER,
                _kernel_rows(records))
    for record in records:
        assert record["byte_identical"] is True
        assert record["fused_per_s"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel-updates", type=int, default=131_072,
                        help="workload size per kernel cell")
    parser.add_argument("--kernel-repeats", type=int, default=5,
                        help="kernel timing repeats (best-of, "
                             "lane-interleaved)")
    parser.add_argument("--skip-floors", action="store_true",
                        help="report only; do not enforce the hard "
                             "floors (exploration on busy machines)")
    parser.add_argument("--out", default="BENCH_ingest.json",
                        help="machine-readable report path")
    args = parser.parse_args(argv)

    kernel_records = kernel_experiment(args.kernel_updates,
                                       args.kernel_repeats)
    write_report(kernel_records, args.out)

    print_table("E-ING: fused vs reference kernels (updates/s)",
                KERNEL_HEADER, _kernel_rows(kernel_records))
    print(f"report written to {args.out}")

    complaints = check_floors(kernel_records)
    if complaints and not args.skip_floors:
        for complaint in complaints:
            print(f"FLOOR VIOLATED: {complaint}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
