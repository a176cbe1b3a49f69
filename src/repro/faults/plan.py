"""Deterministic, seeded fault injection for the whole stack.

Chaos testing a streaming system is only useful if every failure is
*replayable*: a crash that happens once in CI and never again under a
debugger proves nothing.  A :class:`FaultPlan` is therefore a pure
function of its seed and the visit sequence — each named fault site
keeps its own visit counter and its own seeded RNG stream, so the same
plan driven through the same code path fires the identical schedule
every time, and the ``fired`` log can be compared across runs to prove
it.

Two scheduling modes, per site:

* ``at={site: (3, 7)}`` — fire deterministically on the 3rd and 7th
  visit of that site (1-based).  This is what the property tests use
  to place a crash *exactly* mid-stream.
* ``rates={site: 0.01}`` — fire each visit with probability 1% drawn
  from a per-site ``default_rng`` stream keyed on ``(seed, site)``.
  This is what the throughput-under-faults benchmarks use.

The hooks in the production code are written as::

    if self._faults.active and self._faults.maybe_fire(WORKER_CRASH):
        ...inject...

so with the default :data:`NO_FAULTS` singleton the hot path pays one
attribute check and no call.
"""

from __future__ import annotations

import numpy as np

#: A shard worker dies mid-chunk (process backend: the worker process
#: raises and exits; serial backend: the shard state is torn down).
WORKER_CRASH = "worker.crash"

#: The client socket dies after ``drop_after_bytes`` bytes of a request
#: have been sent — the classic half-written-frame connection loss.
SOCKET_DROP = "socket.drop_after_bytes"

#: A replicated delta frame is truncated mid-frame and the subscriber's
#: connection closed — the follower sees a torn tail then EOF.
DELTA_TRUNCATE = "delta.truncate"

#: The server delays an ingest ack past the client's timeout, forcing a
#: retry of an *already applied* batch (exercises the dedup window).
ACK_DELAY = "ack.delay"

#: Every fault site a plan may schedule, each with the fixed id that
#: keys its RNG stream.  Ids are never reused or renumbered: removing a
#: site must not shift the schedules of the others (id 1 belonged to a
#: retired shared-memory corruption site).
_STREAM_IDS = {WORKER_CRASH: 0, SOCKET_DROP: 2, DELTA_TRUNCATE: 3,
               ACK_DELAY: 4}
SITES = tuple(_STREAM_IDS)


class FaultPlan:
    """A seeded, replayable schedule of injected faults.

    Parameters
    ----------
    seed:
        Root seed; two plans with the same seed, rates and ``at``
        schedule fire identically over the same visit sequence.
    rates:
        ``{site: probability}`` — per-visit firing probability drawn
        from that site's own seeded RNG stream.
    at:
        ``{site: iterable_of_visits}`` — fire on exactly these 1-based
        visit numbers.  A site may use ``rates`` or ``at``, not both.
    drop_after_bytes:
        How many bytes of a request :data:`SOCKET_DROP` lets through
        before killing the socket.
    ack_delay_s:
        How long :data:`ACK_DELAY` stalls an ingest ack.
    """

    active = True

    def __init__(self, seed: int = 0, rates: dict | None = None,
                 at: dict | None = None, drop_after_bytes: int = 64,
                 ack_delay_s: float = 0.2):
        rates = dict(rates or {})
        at = dict(at or {})
        for site in (*rates, *at):
            if site not in SITES:
                raise ValueError(f"unknown fault site {site!r}; "
                                 f"known sites: {', '.join(SITES)}")
        for site, rate in rates.items():
            if site in at:
                raise ValueError(f"site {site!r} given both a rate and "
                                 f"an 'at' schedule")
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(f"rate for {site!r} must be in [0, 1], "
                                 f"got {rate!r}")
        self.seed = int(seed)
        self.drop_after_bytes = int(drop_after_bytes)
        self.ack_delay_s = float(ack_delay_s)
        self._rates = {site: float(rate) for site, rate in rates.items()}
        self._at = {site: frozenset(int(v) for v in visits)
                    for site, visits in at.items()}
        for site, visits in self._at.items():
            if any(v < 1 for v in visits):
                raise ValueError(f"'at' visits for {site!r} are 1-based "
                                 f"and must be >= 1")
        # One independent stream per rate-scheduled site, keyed on
        # (seed, site id): adding or removing a site never perturbs
        # another site's draws, which keeps schedules stable.
        self._rngs = {
            site: np.random.default_rng(
                np.random.SeedSequence((self.seed, _STREAM_IDS[site])))
            for site in self._rates
        }
        self.visits = {site: 0 for site in SITES}
        self.fired: list = []

    def maybe_fire(self, site: str) -> bool:
        """Record a visit to ``site``; return whether the fault fires."""
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}")
        visit = self.visits[site] + 1
        self.visits[site] = visit
        fire = False
        if site in self._at:
            fire = visit in self._at[site]
        elif site in self._rates:
            fire = bool(self._rngs[site].random() < self._rates[site])
        if fire:
            self.fired.append((site, visit))
        return fire

    def schedule(self) -> tuple:
        """Everything fired so far, as ``(site, visit)`` pairs — the
        replay-determinism witness."""
        return tuple(self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultPlan(seed={self.seed}, rates={self._rates!r}, "
                f"at={ {s: sorted(v) for s, v in self._at.items()} !r}, "
                f"fired={len(self.fired)})")


class NoFaults:
    """The inert default: never fires, costs one attribute check."""

    active = False
    __slots__ = ()

    def maybe_fire(self, site: str) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NO_FAULTS"


#: Shared no-op plan; the default for every hook in the stack.
NO_FAULTS = NoFaults()
