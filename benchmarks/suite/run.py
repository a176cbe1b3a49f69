"""One socket-level benchmark of the repro daemon.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
                                    [--seconds S] [--trace [0|1]]

Each workload launches the real daemon (``daemon.py`` around
``repro.cli.main(["daemon", ...])``) as a separate process and drives
it from this process over two connections, one thread each:

* the writer sends ingest batches, closed loop (the next batch after
  the previous ack) or open loop (on a fixed schedule);
* the reader subscribes to the daemon's replication stream, applies
  every delta to a ``FollowerPipeline`` and sends queries open loop on
  a fixed schedule, timing each from when it was due.

After ``WARMUP_S`` of warm-up the run measures for ``--seconds``, then
stops the load, lets the follower catch up, drains the daemon with
SIGTERM and runs the correctness gate (:mod:`gate`).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric of BENCHMARK.json,
or with ``--trace 1`` every per-layer one).  The full record of the
run (inputs, versions, sample counts) goes to ``.bench_out/``.

With ``--trace 1`` the workload runs twice, untraced and then traced
(``daemon.py --trace`` on the daemon side, :func:`tracing.
install_client` here); the per-layer numbers come from the traced run
and ``trace.overhead_frac`` compares the two.  Without ``--workload``
every workload runs in turn.  The exit code is 1 when any output was
wrong or any request failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import traces  # noqa: E402
import tracing  # noqa: E402
from repro.engine import FollowerPipeline  # noqa: E402
from repro.engine import checkpoint as structure_checkpoint  # noqa: E402
from repro.net import NetError, ReproClient  # noqa: E402
from repro.wire import KIND_DELTA, KIND_EVENT, peek_kind  # noqa: E402

OUT = ROOT / ".bench_out"
WARMUP_S = 3.0
SETUP_STARTS = 5            # cold starts per run; setup_s is their median
SUBWINDOWS = 10             # throughput is the median over these slices
SAMPLED_ANSWERS = 20        # query answers the gate recomputes offline
CATCH_UP_S = 30.0           # how long the follower may take to catch up

#: The workloads.  Each one runs a writer and a reader/follower; what
#: differs is the structure, the backend, the batch size and the rates,
#: chosen so each stresses different layers (why: BENCHMARK.json and
#: README.md).
WORKLOADS = {
    "ingest-bulk": {
        "structure": "count-sketch", "backend": "serial",
        "universe": 1 << 20, "key_alpha": 1.1,
        "batch": 131072, "cycle": 8, "write_rate": None,
        "preload": 0, "preload_batch": 0,
        "queries": "point", "query_rate": 10.0, "query_alpha": None,
        "primary": "ingest_updates_per_s",
    },
    "ingest-replicated": {
        "structure": "count-sketch", "backend": "process",
        "universe": 1 << 20, "key_alpha": 1.1,
        "batch": 2048, "cycle": 64, "write_rate": None,
        "preload": 0, "preload_batch": 0,
        "queries": "point", "query_rate": 50.0, "query_alpha": None,
        "primary": "ingest_updates_per_s",
    },
    "serve-mixed": {
        "structure": "l0", "backend": "serial",
        "universe": 1 << 16, "key_alpha": 0.0,
        "batch": 1024, "cycle": 32, "write_rate": 3.0,
        "preload": 200_000, "preload_batch": 8000,
        "queries": "l0-mix", "query_rate": 100.0, "query_alpha": 1.1,
        "primary": "query_p50_ms",
    },
}


def daemon_flags(params: dict) -> list[str]:
    """The ``repro daemon`` flags of a workload (everything else is the
    CLI default: refresh every batch, cache 128, prewarm 8)."""
    return ["--structure", params["structure"],
            "-n", str(params["universe"]), "--shards", "2",
            "--backend", params["backend"]]


# -- the daemon process -------------------------------------------------------


def process_tree(pid: int) -> list[int]:
    """``pid`` and its live descendants."""
    pids, queue = [], [pid]
    while queue:
        current = queue.pop()
        pids.append(current)
        try:
            with open(f"/proc/{current}/task/{current}/children") as f:
                queue.extend(int(child) for child in f.read().split())
        except OSError:
            pass
    return pids


def cpu_seconds(pids: list[int]) -> float:
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rpartition(")")[2].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])     # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Daemon:
    """One daemon process in its own session; ``setup_s`` is the time
    from spawn to the first ``ready`` answered true."""

    def __init__(self, params: dict, run_dir: Path,
                 spans: Path | None = None):
        command = [sys.executable, str(SUITE / "daemon.py")]
        if spans is not None:
            command += ["--trace", str(spans)]
        command += ["--listen", "127.0.0.1:0",
                    "--checkpoint-out", str(run_dir / "final.wire"),
                    *daemon_flags(params)]
        self._log = open(run_dir / "daemon.log", "ab")
        started = time.monotonic()
        self.proc = subprocess.Popen(command, cwd=ROOT,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log,
                                     start_new_session=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = (self.proc.stdout.readline().decode()
                    if ready else "")
            found = re.search(r" on (\S+):(\d+) ", line)
            if not found:
                raise RuntimeError(f"daemon did not start: {line!r} "
                                   f"(see {run_dir / 'daemon.log'})")
            self.host, self.port = found.group(1), int(found.group(2))
            with ReproClient(self.host, self.port) as probe:
                while not probe.ready():
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def tree(self) -> list[int]:
        return process_tree(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (the daemon drains and writes its checkpoint), wait;
        SIGKILL the whole session if it does not end in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()
        finally:
            self._log.close()
        return self.proc.returncode


# -- the load -----------------------------------------------------------------


class Run:
    """What one measured run records (times are ``time.monotonic()``)."""

    def __init__(self):
        self.acks: list[tuple] = []      # (issued, done, before, epoch, count)
        self.queries: list[tuple] = []   # (due, sent, done)
        self.answers: list[tuple] = []   # (epoch, op, args, result, done)
        self.applied: dict[int, float] = {}   # epoch -> follower applied
        self.requests: list[tuple] = []  # (rid, sent, done), every success
        self.errors: list[str] = []      # every failed request
        self.samples: dict[str, dict] = {}   # "start"/"end" of the window
        self.peak_rss_mb = 0.0
        self.writer_done = threading.Event()
        self.final_epoch = 0
        self.follower_epoch = 0
        self.follower_state = None

    @property
    def attempted(self) -> int:
        return len(self.requests) + len(self.errors)

    def fail(self, what: str, exc: BaseException) -> None:
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def write_loop(client, trace, params, run: Run, start: float,
               until: float, on_tick) -> None:
    """The writer: closed loop, or open loop at ``write_rate``."""
    rate = params["write_rate"]
    sent = 0
    while True:
        now = time.monotonic()
        on_tick(now)
        if now >= until:
            return
        issued = now
        if rate:
            issued = start + sent / rate
            if issued > now:
                time.sleep(min(issued - now, 0.05))
                continue
        indices, deltas = trace.batches[sent % len(trace.batches)]
        if not ingest(client, run, indices, deltas, issued):
            return          # the ack chain is broken; the gate reports it
        sent += 1


def ingest(client, run: Run, indices, deltas, issued: float) -> bool:
    began = time.monotonic()
    try:
        reply = client.ingest(indices, deltas)
    except (NetError, OSError) as exc:
        run.fail("ingest", exc)
        return False
    done = time.monotonic()
    result = reply.result
    run.acks.append((issued, done, result["epoch_before"], result["epoch"],
                     result["count"]))
    run.requests.append((f"ingest#{reply.id}", began, done))
    return True


def read_loop(client, follower, trace, params, run: Run, start: float,
              until: float) -> None:
    """The reader: queries open loop at ``query_rate``, applying the
    subscription's deltas in between; then catches the follower up to
    the writer's last ack."""
    rate = params["query_rate"]
    sent = 0
    while True:
        due = start + sent / rate
        if due >= until or run.writer_done.is_set():
            break
        while (wait := due - time.monotonic()) > 1e-4:
            apply_next(client, follower, run, wait)
        op, args = trace.queries[sent % len(trace.queries)]
        sent += 1
        began = time.monotonic()
        try:
            reply = client.request(op, args)
        except (NetError, OSError) as exc:
            run.fail(op, exc)
            continue
        done = time.monotonic()
        run.queries.append((due, began, done))
        run.answers.append((reply.meta["epoch"], op, args, reply.result,
                            done))
        run.requests.append((f"{op}#{reply.id}", began, done))
    deadline = time.monotonic() + CATCH_UP_S
    while not (run.writer_done.is_set()
               and follower.epoch >= run.final_epoch):
        if time.monotonic() > deadline:
            raise TimeoutError(f"follower stuck at epoch {follower.epoch},"
                               f" leader acked {run.final_epoch}")
        apply_next(client, follower, run, 0.05)
    run.follower_epoch = follower.epoch
    run.follower_state = structure_checkpoint(follower.merged())


def apply_next(client, follower, run: Run, timeout: float) -> None:
    """Apply the next subscription frame, if one arrives in time."""
    blob = client.next_frame(timeout=timeout)
    if blob is None:
        return
    kind = peek_kind(blob)
    if kind == KIND_DELTA:
        run.applied[follower.apply(blob)] = time.monotonic()
    elif kind != KIND_EVENT:
        raise RuntimeError(f"unexpected frame kind {kind} on the "
                           f"subscription")


def drive(daemon: Daemon, trace, params, seconds: float, run: Run) -> tuple:
    """Preload, warm up, measure; returns the window ``(start, end)``."""
    writer = ReproClient(daemon.host, daemon.port, client_id="writer")
    reader = ReproClient(daemon.host, daemon.port, client_id="reader")
    try:
        for indices, deltas in trace.preload:
            ingest(writer, run, indices, deltas, time.monotonic())
        _, base = reader.subscribe()
        follower = FollowerPipeline(base)
        start = time.monotonic()
        window = (start + WARMUP_S, start + WARMUP_S + seconds)

        def on_tick(now: float) -> None:
            for name, at in (("start", window[0]), ("end", window[1])):
                if name not in run.samples and now >= at:
                    run.samples[name] = sample(daemon, writer, run)

        failure: list[BaseException] = []

        def reader_main() -> None:
            try:
                read_loop(reader, follower, trace, params, run, start,
                          window[1])
            except BaseException as exc:   # reported by the main thread
                failure.append(exc)

        thread = threading.Thread(target=reader_main, name="reader")
        thread.start()
        try:
            write_loop(writer, trace, params, run, start, window[1],
                       on_tick)
        finally:
            run.final_epoch = run.acks[-1][3] if run.acks else 0
            run.writer_done.set()
            thread.join(CATCH_UP_S + 60)
        if thread.is_alive() or failure:
            raise RuntimeError("reader failed") from (
                failure[0] if failure else None)
        run.peak_rss_mb = peak_rss_mb(daemon.tree())
        return window
    finally:
        writer.close()
        reader.close()


def sample(daemon: Daemon, client, run: Run) -> dict:
    """CPU time of both sides and the daemon's counters, now."""
    times = os.times()
    began = time.monotonic()
    try:
        reply = client.request("stats")
    except (NetError, OSError) as exc:
        run.fail("stats", exc)
        stats = {}
    else:
        stats = reply.result
        run.requests.append((f"stats#{reply.id}", began, time.monotonic()))
    return {"at": time.monotonic(),
            "server_cpu_s": cpu_seconds(daemon.tree()),
            "loadgen_cpu_s": times.user + times.system,
            "stats": stats}


# -- one workload -------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def end_to_end(run: Run, window: tuple, setup: list) -> dict:
    low, high = window
    inside = [a for a in run.acks if low <= a[1] < high]
    ack_ms = [1e3 * (done - issued) for issued, done, *_ in inside]
    query_ms = [1e3 * (done - due) for due, _, done in run.queries
                if low <= done < high]
    lag_ms = [1e3 * (run.applied[epoch] - issued)
              for issued, _, _, epoch, _ in inside if epoch in run.applied]
    return {
        "setup_s": metric(np.median(setup), "s", len(setup)),
        "ingest_updates_per_s": metric(*throughput(inside, window)),
        "ingest_ack_p50_ms": metric(percentile(ack_ms, 50), "ms",
                                    len(ack_ms)),
        "ingest_ack_p90_ms": metric(percentile(ack_ms, 90), "ms",
                                    len(ack_ms)),
        "query_p50_ms": metric(percentile(query_ms, 50), "ms",
                               len(query_ms)),
        "query_p95_ms": metric(percentile(query_ms, 95), "ms",
                               len(query_ms)),
        "replication_lag_p50_ms": metric(percentile(lag_ms, 50), "ms",
                                         len(lag_ms)),
        "replication_lag_p90_ms": metric(percentile(lag_ms, 90), "ms",
                                         len(lag_ms)),
        "server_peak_rss_mb": metric(run.peak_rss_mb, "MiB", 1),
    }


def throughput(acks: list, window: tuple) -> tuple:
    """Median over ``SUBWINDOWS`` slices of the rate between each
    slice's first and last ack (the first ack's updates excluded)."""
    low, high = window
    width = (high - low) / SUBWINDOWS
    rates = []
    for n in range(SUBWINDOWS):
        start = low + n * width
        part = [a for a in acks if start <= a[1] < start + width]
        if len(part) >= 2 and part[-1][1] > part[0][1]:
            rates.append(sum(a[4] for a in part[1:])
                         / (part[-1][1] - part[0][1]))
    if not rates:           # too few acks for slices (very short runs)
        rates = [sum(a[4] for a in acks) / (high - low)]
    return float(np.median(rates)), "1/s", len(rates)


def per_layer(run: Run, window: tuple, spans_path: Path, client_tracer,
              untraced: dict, traced: dict, primary: str) -> dict:
    """The per-layer metrics of a traced run; ``untraced`` and
    ``traced`` are the two runs' end-to-end metrics."""
    daemon_spans, workers = tracing.load(str(spans_path))
    layers = tracing.Layers(window)
    layers.add(daemon_spans, on_request_path=True, root_busy=True)
    for spans in workers.values():
        layers.add(spans, on_request_path=False)
    layers.add(client_tracer.spans, on_request_path=True)
    low, high = window
    timed = [(rid, began, done) for rid, began, done in run.requests
             if low <= done < high]
    requests = max(1, len(timed))

    def ms(name: str) -> dict:
        return metric(layers.per_request_ms(name, requests), "ms",
                      layers.calls.get(name, 0))

    first, last = run.samples["start"], run.samples["end"]
    wall = last["at"] - first["at"]
    delta = {key: last["stats"].get(key, 0) - first["stats"].get(key, 0)
             for key in ("cache_hits", "cache_misses", "prewarmed",
                         "snapshots_captured")}
    lookups = delta["cache_hits"] + delta["cache_misses"]
    late_ms = [1e3 * (sent - due) for due, sent, done in run.queries
               if low <= done < high]
    latency = sum(done - began for _, began, done in timed)
    covered = sum(layers.by_rid.get(rid, 0.0) for rid, _, _ in timed)
    slowed = traced[primary]["value"] / untraced[primary]["value"]
    overhead = 1.0 - slowed if primary.endswith("_per_s") else slowed - 1.0
    return {
        "net.decoder.self_ms": ms("net.decoder"),
        "net.decoder.mb_per_s": metric(layers.rate("net.decoder", 1e6),
                                       "MB/s",
                                       layers.calls.get("net.decoder", 0)),
        "net.decode_request.self_ms": ms("net.decode_request"),
        "net.encode_response.self_ms": ms("net.encode_response"),
        "net.client.encode_request.self_ms": ms("net.client.encode_request"),
        "net.client.decode_reply.self_ms": ms("net.client.decode_reply"),
        "net.server.busy_frac": metric(layers.root_s / (high - low),
                                       "ratio", len(timed)),
        "service.ingest.self_ms": ms("service.ingest"),
        "service.snapshot.self_ms": ms("service.snapshot"),
        "service.prewarm.self_ms": ms("service.prewarm"),
        "service.query.self_ms": ms("service.query"),
        "service.cache.hit_rate": metric(
            delta["cache_hits"] / lookups if lookups else 0.0, "ratio",
            lookups),
        "service.prewarm.keys_per_epoch": metric(
            delta["prewarmed"] / max(1, delta["snapshots_captured"]),
            "count", delta["snapshots_captured"]),
        "engine.pipeline_ingest.self_ms": ms("engine.pipeline_ingest"),
        "engine.flush.self_ms": ms("engine.flush"),
        "engine.merged.self_ms": ms("engine.merged"),
        "engine.delta_checkpoint.self_ms": ms("engine.delta_checkpoint"),
        "engine.delta_checkpoint.kb_per_op": metric(
            layers.mean_count("engine.delta_checkpoint") / 1024, "KiB",
            layers.calls.get("engine.delta_checkpoint", 0)),
        "engine.follower_apply.self_ms": ms("engine.follower_apply"),
        "structure.update_many.self_ms": ms("structure.update_many"),
        "structure.update_many.mupd_per_s": metric(
            layers.rate("structure.update_many", 1e6), "Mupd/s",
            layers.calls.get("structure.update_many", 0)),
        "structure.query.self_ms": ms("structure.query"),
        "proc.server_cpu_cores": metric(
            (last["server_cpu_s"] - first["server_cpu_s"]) / wall,
            "cores", 1),
        "proc.loadgen_cpu_cores": metric(
            (last["loadgen_cpu_s"] - first["loadgen_cpu_s"]) / wall,
            "cores", 1),
        "loadgen.late_p99_ms": metric(percentile(late_ms, 99), "ms",
                                      len(late_ms)),
        "trace.residue_frac": metric(1.0 - covered / latency if latency
                                     else 0.0, "ratio", len(timed)),
        "trace.overhead_frac": metric(overhead, "ratio", 2),
    }


def measure(params: dict, trace, seed: int, seconds: float, run_dir: Path,
            starts: int, spans: Path | None = None):
    """Start the daemon ``starts`` times (keeping the last), drive it,
    drain it and gate it.  Returns ``(run, window, setup times,
    failures)``; failed requests count as failures."""
    run_dir.mkdir(parents=True)
    setup = []
    for n in range(starts):
        daemon = Daemon(params, run_dir, spans if n == starts - 1 else None)
        setup.append(daemon.setup_s)
        if n < starts - 1:
            daemon.stop()
    run = Run()
    try:
        window = drive(daemon, trace, params, seconds, run)
    finally:
        code = daemon.stop()
    failures = [] if code == 0 else [f"daemon exited with code {code}"]
    rng = np.random.default_rng(seed)
    answers = [a for a in run.answers if window[0] <= a[4] < window[1]]
    picked = sorted(rng.choice(len(answers), min(SAMPLED_ANSWERS,
                                                 len(answers)),
                               replace=False)) if answers else []
    (run_dir / "answers.json").write_text(json.dumps(
        [answers[int(i)][:4] for i in picked]))
    (run_dir / "acks.json").write_text(json.dumps({
        "acks": [list(a[2:]) for a in run.acks],
        "follower_epoch": run.follower_epoch}))
    (run_dir / "follower.wire").write_bytes(run.follower_state)
    failures += gate.check(run_dir, trace)
    failures += run.errors
    return run, window, setup, failures


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    params = WORKLOADS[name]
    out = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(out, ignore_errors=True)
    trace = traces.build(params, seed)
    run, window, setup, failures = measure(
        params, trace, seed, seconds, out / "untraced",
        1 if traced else SETUP_STARTS)
    metrics = end_to_end(run, window, setup)
    attempted, failed = run.attempted, len(run.errors)
    if traced:
        client_tracer = tracing.Tracer()
        tracing.install_client(client_tracer)
        spans = out / "traced" / "spans.json"
        try:
            traced_run, traced_window, traced_setup, traced_failures = \
                measure(params, trace, seed, seconds, out / "traced", 1,
                        spans)
        finally:
            client_tracer.unwrap()
        metrics = per_layer(
            traced_run, traced_window, spans, client_tracer, metrics,
            end_to_end(traced_run, traced_window, traced_setup),
            params["primary"])
        failures += traced_failures
        attempted += traced_run.attempted
        failed += len(traced_run.errors)
    failures += [f"{key} has no samples" for key, entry in metrics.items()
                 if not np.isfinite(entry["value"])]
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "warmup_s": WARMUP_S, "trace": traced,
        "params": {**params, "daemon_flags": daemon_flags(params)},
        "inputs": trace.properties,
        "env": environment(),
        "correct": not failures,
        "attempted": attempted, "failed": failed,
        "failures": failures,
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return result


def environment() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"rev": rev, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def report(result: dict) -> None:
    print(f"{result['workload']} (seed {result['seed']}, "
          f"{result['seconds']:g} s, trace {int(result['trace'])}): "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for name, entry in result["metrics"].items():
        print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']:7s} "
              f"n={entry['samples']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement window after warm-up")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: also run traced, report per-layer metrics")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through the finally blocks that stop the daemons.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace))
        report(result)
        results.append(result)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{key}" if prefix else key):
                    {"value": (entry["value"] if np.isfinite(entry["value"])
                               else None),
                     "unit": entry["unit"]}
                    for r in results
                    for key, entry in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
