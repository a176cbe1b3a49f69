"""The correctness gate: a run's outputs against an offline oracle.

Any mismatch fails the run:

1. The acks form one gapless chain of epochs, each batch the size the
   generator sent.
2. The final checkpoint the daemon wrote on its SIGTERM drain holds
   state arrays byte-identical to an offline replay of the acked
   batches in ack order.
3. The follower's state equals the leader's final state, at the same
   epoch.
4. Every sampled query answer equals the offline answer at its epoch.

The oracle runs no pipeline, service or socket.  It feeds the generated
batches into one fresh structure (a sharded merge equals the
single-instance state exactly for these integer and field-valued
structures) and uses linearity for the cycled batches, as described in
:mod:`traces`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine import (ShardedPipeline, clone, fresh_twin, merge_into,
                          params_of, query_capability, restore,
                          state_arrays)
from repro.net import to_jsonable


class Oracle:
    """The offline state after the preload and any number of writes."""

    def __init__(self, template, trace):
        self._preload = fresh_twin(template)
        for indices, deltas in trace.preload:
            self._preload.update_many(indices, deltas)
        self.preload_updates = sum(len(i) for i, _ in trace.preload)
        self.batch = len(trace.batches[0][0])
        running = fresh_twin(template)
        self._prefix = [clone(running)]
        for indices, deltas in trace.batches:
            running.update_many(indices, deltas)
            self._prefix.append(clone(running))

    def state(self, writes: int):
        """``preload + k * cycle + first r batches`` for ``writes = k *
        cycle + r``."""
        cycles, rest = divmod(writes, len(self._prefix) - 1)
        state = clone(self._preload)
        for _ in range(cycles):
            merge_into(state, self._prefix[-1])
        merge_into(state, self._prefix[rest])
        return state

    def writes_at(self, epoch: int) -> int | None:
        """How many cycle batches were acked at ``epoch`` (None when
        the epoch is not on a batch boundary)."""
        writes, rest = divmod(epoch - self.preload_updates, self.batch)
        return writes if rest == 0 and writes >= 0 else None


def same_state(a, b) -> bool:
    """Same class, parameters and byte-identical state arrays."""
    if type(a) is not type(b) or params_of(a) != params_of(b):
        return False
    left, right = state_arrays(a), state_arrays(b)
    return len(left) == len(right) and all(
        x.dtype == y.dtype and x.shape == y.shape
        and x.tobytes() == y.tobytes() for x, y in zip(left, right))


def check(run_dir, trace, acks: list | None = None) -> list[str]:
    """The gate's failures for one run directory (empty: all passed).

    ``acks`` overrides the recorded ack log (``[epoch_before, epoch,
    count]`` per acked batch, in ack order).
    """
    run_dir = Path(run_dir)
    record = json.loads((run_dir / "acks.json").read_text())
    acks = record["acks"] if acks is None else acks
    sizes = [len(i) for i, _ in trace.preload]
    failures = []
    epoch = 0
    for n, (before, after, count) in enumerate(acks):
        size = (sizes[n] if n < len(sizes)
                else len(trace.batches[(n - len(sizes))
                                       % len(trace.batches)][0]))
        if before != epoch or after != before + count or count != size:
            failures.append(
                f"ack {n} is ({before}, {after}, {count}); expected "
                f"({epoch}, {epoch + size}, {size})")
            break
        epoch = after

    with ShardedPipeline.restore(
            (run_dir / "final.wire").read_bytes()) as leader:
        final = leader.merged()
        final_epoch = leader.updates_ingested
    if final_epoch != epoch:
        failures.append(f"final checkpoint is at epoch {final_epoch}, "
                        f"the last ack at {epoch}")
    oracle = Oracle(final, trace)
    if not same_state(final, oracle.state(len(acks) - len(sizes))):
        failures.append("final checkpoint state differs from the offline "
                        "replay of the acked batches")

    follower = restore((run_dir / "follower.wire").read_bytes())
    if record["follower_epoch"] != final_epoch \
            or not same_state(follower, final):
        failures.append(f"follower at epoch {record['follower_epoch']} "
                        f"differs from the leader at {final_epoch}")

    answers = json.loads((run_dir / "answers.json").read_text())
    for at, op, args, answer in answers:
        writes = oracle.writes_at(at)
        if writes is None:
            failures.append(f"{op}{args} answered at epoch {at}, which "
                            f"is not a batch boundary")
            continue
        state = oracle.state(writes)
        expected = to_jsonable(
            query_capability(state, op).run(clone(state), dict(args)))
        if json.loads(json.dumps(expected)) != answer:
            failures.append(f"{op}{args} at epoch {at} answered {answer!r}, "
                            f"offline {expected!r}")
    return failures
