"""Regenerate every experiment table in one go.

Runs the `experiment*` functions of each bench module directly (no
pytest-benchmark overhead) and prints all the tables EXPERIMENTS.md is
based on.  Usage:

    python benchmarks/make_report.py            # everything (~2 min)
    python benchmarks/make_report.py E3 E10     # a subset by id
"""

from __future__ import annotations

import pathlib
import sys
import time

_HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE), str(_HERE.parent / "src")]

from _common import print_table  # noqa: E402


def report_e1():
    import bench_lp_distribution as m
    for p in (0.5, 1.0, 1.5):
        tv, rate, successes = m.experiment(p)
        print_table(f"E1: Lp distribution accuracy, p={p}",
                    ["p", "success rate", "samples", "TV (head-15)"],
                    [[p, f"{rate:.3f}", successes, f"{tv:.3f}"]])


def report_e2():
    import bench_estimate_error as m
    rows = []
    for p, eps in ((0.5, 0.25), (1.0, 0.25), (1.5, 0.25)):
        median, exceed, count = m.experiment(p, eps)
        rows.append([p, eps, count, f"{median:.4f}", f"{exceed:.3f}"])
    print_table("E2: estimate accuracy",
                ["p", "eps", "samples", "median rel.err", "P[err>eps]"],
                rows)


def report_e3():
    import bench_space_scaling as m
    rows, _ = m.experiment()
    print_table("E3: space, ours vs AKO",
                ["log2 n", "ours", "AKO", "ratio"], rows)


def report_e4():
    import bench_l0_sampler as m
    failure, exact, tv, successes = m.experiment_quality()
    print_table("E4: L0 sampler quality",
                ["failure rate", "exact", "samples", "TV (head-20)"],
                [[f"{failure:.3f}", exact, successes, f"{tv:.3f}"]])


def report_e5():
    import bench_duplicates as m
    print_table("E5: Theorem 3 duplicates",
                ["workload", "found", "wrong"], m.experiment_success())


def report_e6():
    import bench_duplicates_short as m
    print_table("E6: Theorem 4 short streams",
                ["s", "clean NO-DUP", "dirty found"],
                m.experiment_correctness())


def report_e7():
    import bench_duplicates_long as m
    print_table("E7: n+s crossover",
                ["s", "strategy", "bits", "found"], m.experiment())


def report_e8():
    import bench_heavy_hitters as m
    print_table("E8: heavy hitter validity",
                ["p", "phi", "valid"], m.experiment_validity())


def report_e9():
    import bench_ur_protocols as m
    ok, trials, bits = m.experiment_theorem6()
    print_table("E9: AI via 1-round UR (Theorem 6)",
                ["decoded", "bits"], [[f"{ok}/{trials}", bits]])


def report_e10():
    import bench_ur_protocols as m
    rows, _, _ = m.experiment_bits()
    print_table("E10: UR message sizes",
                ["log2 n", "deterministic", "1-round", "msg1", "msg2"],
                rows)


def report_e11():
    import bench_reduction_duplicates as m
    ok, bits = m.experiment()
    print_table("E11: UR via duplicates (Theorem 7)",
                ["correct", "bits"], [[f"{ok}/{m.TRIALS}", bits]])


def report_e12():
    import bench_reduction_hh as m
    print_table("E12: AI via heavy hitters (Theorem 9)",
                ["p", "phi", "decoded", "bits"], m.experiment_success())


def report_e13():
    import bench_count_sketch as m
    print_table("E13: Lemma 1",
                ["vector", "bound", "within", "sandwich"], m.experiment())


def report_e14():
    import bench_lemma3 as m
    print_table("E14: Lemma 3 abort rates",
                ["eps", "P[abort]", "P[abort|t<0.1]", "cond trials"],
                m.experiment())


def report_e15():
    import bench_ablation_kwise as m
    rows, _ = m.experiment()
    print_table(m.TITLE, ["k", "mean S'", "std", "q99", "P[S' > 4*mean]"],
                rows)


def report_e18():
    import bench_ablation_config as m
    rows, _ = m.experiment_tail_slack()
    print_table("E18: tail-abort ablation",
                ["tail_slack", "success", "aborts", "bad"], rows)


def report_e19():
    import bench_ablation_config as m
    rows, _ = m.experiment_success_law()
    print_table("E19: success rate vs eps",
                ["eps", "rate", "rate/eps"], rows)


def report_e20():
    import bench_reduction_sampling as m
    rows, _ = m.experiment()
    print_table("E20: Theorem 8 forward",
                ["sampler", "correct", "bits"], rows)


def report_e16():
    import bench_sparse_recovery as m
    print_table("E16: syndrome vs IBLT",
                ["s", "syndrome", "IBLT"], m.experiment())


def report_e17():
    import bench_norm_estimation as m
    table, _ = m.experiment()
    print_table("E17: Lemma 2 bracketing",
                ["p", "lemma rows", "rows=9", "rows=19", "rows=lemma"],
                table)


REPORTS = {name[7:].upper(): fn for name, fn in sorted(vars().items())
           if name.startswith("report_")}


def main(wanted=None):
    ids = [w.upper() for w in wanted] if wanted else list(REPORTS)
    for exp_id in ids:
        if exp_id not in REPORTS:
            print(f"unknown experiment id {exp_id!r}; "
                  f"known: {', '.join(REPORTS)}")
            return 1
        start = time.time()
        REPORTS[exp_id]()
        print(f"[{exp_id} done in {time.time() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
