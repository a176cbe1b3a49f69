"""Deterministic fault injection: seeded, replayable failure schedules.

See :mod:`repro.faults.plan` for the model.  The production hooks live
in :mod:`repro.engine.workers` (worker crashes),
:mod:`repro.net.server` (ack delay, delta truncation) and
:mod:`repro.net.client` (socket drops); the self-healing they exercise
is the engine's supervised restart, the client's idempotent retry, the
follower's auto-resync and the service's degraded serving.

>>> from repro.faults import FaultPlan, WORKER_CRASH
>>> plan = FaultPlan(seed=7, at={WORKER_CRASH: (3,)})
>>> [plan.maybe_fire(WORKER_CRASH) for _ in range(4)]
[False, False, True, False]
>>> plan.schedule()
(('worker.crash', 3),)
"""

from .plan import (ACK_DELAY, DELTA_TRUNCATE, NO_FAULTS, SITES, SOCKET_DROP,
                   WORKER_CRASH, FaultPlan, NoFaults)

__all__ = [
    "ACK_DELAY", "DELTA_TRUNCATE", "FaultPlan", "NO_FAULTS", "NoFaults",
    "SITES", "SOCKET_DROP", "WORKER_CRASH",
]
