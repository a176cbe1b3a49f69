"""Seeded inputs for the benchmark workloads.

Everything the load generator sends is made here from the workload's
parameters and the ``--seed``: the same seed gives byte-identical
batches and the same query schedule, and the daemon receives only the
generated requests.  Keys follow a bounded Zipf law over the universe
(exponent 0 is uniform), mapped through a seeded permutation so the
hot keys are scattered; deltas are signed turnstile updates.

A workload cycles through ``cycle`` distinct write batches.  Because
every served structure is linear, the state after ``k`` full cycles
plus ``r`` batches is ``k * state(cycle) + state(first r batches)``,
which is what lets the correctness gate replay tens of millions of
acked updates offline in a fraction of a second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The serve-mixed query kinds, hottest first: a Zipf law over this
#: list sets how often each is asked.
L0_QUERY_KINDS = (
    ("sample_l0", {"count": 1}),
    ("support", {}),
    ("sample_l0", {"count": 2}),
    ("sample_l0", {"count": 4}),
    ("sample_l0", {"count": 3}),
    ("sample_l0", {"count": 8}),
    ("sample_l0", {"count": 6}),
)

#: Queries in one cycle of the query schedule (longer than any run).
QUERY_CYCLE = 8192


@dataclass(frozen=True)
class Trace:
    """One workload's generated inputs.

    ``preload`` batches are sent once before warm-up; ``batches`` is
    the write cycle; ``queries`` the ``(op, args)`` schedule, sent in
    order and cycled.
    """

    preload: list
    batches: list
    queries: list
    properties: dict


def zipf_sampler(rng: np.random.Generator, universe: int, alpha: float):
    """A function ``size -> keys`` drawing from Zipf(alpha) over
    ``[0, universe)``: rank r has weight ``r**-alpha`` and ranks map
    to keys through a seeded permutation."""
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -alpha
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    keys = rng.permutation(universe).astype(np.int64)

    def draw(size: int) -> np.ndarray:
        ranks = np.searchsorted(cdf, rng.random(size), side="right")
        return keys[np.minimum(ranks, universe - 1)]
    return draw


def signed_deltas(rng: np.random.Generator, size: int) -> np.ndarray:
    """Turnstile deltas: magnitude 1..9, one in four negative."""
    magnitude = rng.integers(1, 10, size=size, dtype=np.int64)
    return np.where(rng.random(size) < 0.25, -magnitude, magnitude)


def _batches(draw, rng, count: int, size: int) -> list:
    return [(draw(size), signed_deltas(rng, size)) for _ in range(count)]


def build(params: dict, seed: int) -> Trace:
    """The inputs of one workload (see ``run.WORKLOADS``) for ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xB37C)))
    universe = params["universe"]
    draw = zipf_sampler(rng, universe, params["key_alpha"])
    preload = (_batches(draw, rng,
                        params["preload"] // params["preload_batch"],
                        params["preload_batch"])
               if params["preload"] else [])
    batches = _batches(draw, rng, params["cycle"], params["batch"])
    if params["queries"] == "point":
        queries = [("point", {"index": int(key)})
                   for key in draw(QUERY_CYCLE)]
    else:
        weights = np.arange(1, len(L0_QUERY_KINDS) + 1,
                            dtype=np.float64) ** -params["query_alpha"]
        ranks = rng.choice(len(L0_QUERY_KINDS), size=QUERY_CYCLE,
                           p=weights / weights.sum())
        queries = [L0_QUERY_KINDS[int(rank)] for rank in ranks]
    return Trace(preload, batches, queries,
                 properties(preload, batches, queries))


def properties(preload: list, batches: list, queries: list) -> dict:
    """The input properties the system's behaviour depends on.

    ``repeat_share`` is the share of updates whose key already occurred
    earlier in the generated input (duplicates after first occurrence);
    byte counts are exact wire sizes of the requests as sent.
    """
    from repro.net import encode_request

    keys = np.concatenate([idx for idx, _ in preload + batches])
    distinct = int(np.unique(keys).size)
    idx, dlt = batches[0]
    ingest_bytes = len(encode_request(1, "ingest", {"rid": "writer:0"},
                                      (idx, dlt)))
    op, args = queries[0]
    return {
        "updates": int(keys.size),
        "distinct_keys": distinct,
        "repeat_share": round(1.0 - distinct / keys.size, 6),
        "ingest_bytes_per_request": ingest_bytes,
        "query_bytes_per_request": len(encode_request(1, op, args)),
        "distinct_queries": len({(op, tuple(sorted(args.items())))
                                 for op, args in queries}),
    }
