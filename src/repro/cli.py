"""Command-line interface: ``python -m repro <command>``.

A thin operational wrapper so the library can be poked without writing
code — each subcommand builds a synthetic workload, runs the relevant
structure, and prints what the paper says should happen.

Commands
--------
``sample``      draw Lp samples from a random turnstile vector
``l0``          draw L0 (support) samples
``duplicates``  find a duplicate in a random length-(n+1) item stream
``hh``          report Lp heavy hitters on a planted instance
``space``       print the space table for a structure across n
``engine``      sharded ingestion: partition, checkpoint/resume, merge
``serve``       snapshot-isolated query service over a live stream
``follow``      leader/follower replication over a delta stream
``daemon``      the same service behind a socket (asyncio frame server)
``client``      talk to a running daemon: ingest/query/stats/follow
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lp samplers, duplicates and heavy hitters "
                    "(Jowhari-Saglam-Tardos, PODS 2011)")
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="draw Lp samples")
    sample.add_argument("-n", "--universe", type=int, default=1024)
    sample.add_argument("-p", type=float, default=1.0)
    sample.add_argument("--eps", type=float, default=0.25)
    sample.add_argument("--count", type=int, default=5)
    sample.add_argument("--seed", type=int, default=0)

    l0 = sub.add_parser("l0", help="draw L0 support samples")
    l0.add_argument("-n", "--universe", type=int, default=1024)
    l0.add_argument("--support", type=int, default=50)
    l0.add_argument("--count", type=int, default=5)
    l0.add_argument("--seed", type=int, default=0)

    dup = sub.add_parser("duplicates", help="find a duplicate item")
    dup.add_argument("-n", "--universe", type=int, default=512)
    dup.add_argument("--delta", type=float, default=0.1)
    dup.add_argument("--seed", type=int, default=0)

    hh = sub.add_parser("hh", help="report heavy hitters")
    hh.add_argument("-n", "--universe", type=int, default=1024)
    hh.add_argument("-p", type=float, default=1.0)
    hh.add_argument("--phi", type=float, default=0.125)
    hh.add_argument("--seed", type=int, default=0)

    space = sub.add_parser("space", help="space scaling table")
    space.add_argument("structure",
                       choices=["lp", "ako", "l0", "fis", "duplicates"])
    space.add_argument("--logn", type=int, nargs="+",
                       default=[8, 12, 16])

    engine = sub.add_parser(
        "engine", help="sharded ingestion with checkpoint/restore")
    engine.add_argument("--structure",
                        choices=["count-sketch", "l0", "l1", "hh"],
                        default="l0")
    engine.add_argument("-n", "--universe", type=int, default=4096)
    engine.add_argument("--updates", type=int, default=50_000)
    engine.add_argument("--shards", type=int, default=4)
    engine.add_argument("--chunk", type=int, default=4096)
    engine.add_argument("--partition", choices=["hash", "round_robin"],
                        default="hash")
    engine.add_argument("--backend", choices=["serial", "process"],
                        default="serial",
                        help="where shard updates execute: this process "
                             "or one worker process per shard")
    engine.add_argument("--reshard-at", type=int, default=None,
                        metavar="UPDATE",
                        help="reshard the live pipeline after this many "
                             "updates (elastic K; replaces the "
                             "checkpoint/restore demo)")
    engine.add_argument("--reshard-to", type=int, default=None,
                        metavar="K",
                        help="shard count to reshard to "
                             "(default: 2 * --shards)")
    engine.add_argument("--checkpoint-format", choices=["full", "delta"],
                        default="full",
                        help="checkpoint demo variant: one full "
                             "checkpoint, or a full base plus a delta "
                             "of the interim updates (restored as "
                             "base + delta chain)")
    engine.add_argument("--compress", choices=["none", "zlib"],
                        default=None,
                        help="per-section frame compression (default: "
                             "none for full checkpoints, zlib for "
                             "deltas)")
    engine.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="snapshot-isolated query service over a live "
                      "stream (ingest-while-query loop)")
    serve.add_argument("--structure",
                       choices=["count-sketch", "l0", "l1", "hh", "ams"],
                       default="hh")
    serve.add_argument("-n", "--universe", type=int, default=4096)
    serve.add_argument("--updates", type=int, default=50_000)
    serve.add_argument("--batches", type=int, default=20,
                       help="ingest batches (one query round follows "
                            "each batch)")
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--chunk", type=int, default=4096)
    serve.add_argument("--backend", choices=["serial", "process"],
                       default="serial")
    serve.add_argument("--queries", default=None, metavar="SPEC",
                       help="comma-separated ops, each 'op' or "
                            "'op:arg' (e.g. "
                            "'heavy_hitters,norm:1,point:7'); default "
                            "picks a sensible op for the structure")
    serve.add_argument("--refresh-every", type=int, default=None,
                       metavar="N",
                       help="auto-capture a snapshot every N ingested "
                            "updates (default: one batch)")
    serve.add_argument("--keep", type=int, default=4,
                       help="how many epochs stay queryable")
    serve.add_argument("--cache-size", type=int, default=128,
                       help="LRU result-cache capacity (0 disables)")
    serve.add_argument("--watermark-high", type=float, default=None,
                       metavar="RATE",
                       help="offered load (updates/s) above which the "
                            "service reshards up (requires "
                            "--watermark-low)")
    serve.add_argument("--watermark-low", type=float, default=None,
                       metavar="RATE",
                       help="offered load below which it reshards "
                            "down (requires --watermark-high)")
    serve.add_argument("--watermark-sustain", type=int, default=3,
                       help="consecutive observations beyond a "
                            "watermark before acting")
    serve.add_argument("--max-shards", type=int, default=8,
                       help="autoscaler shard-count ceiling")
    serve.add_argument("--checkpoint-out", default=None, metavar="PATH",
                       help="write a final pipeline checkpoint frame "
                            "to this file before shutdown")
    serve.add_argument("--compress", choices=["none", "zlib"],
                       default=None,
                       help="per-section compression of the "
                            "--checkpoint-out frame (default none)")
    serve.add_argument("--seed", type=int, default=0)

    follow = sub.add_parser(
        "follow", help="leader/follower replication: tail a base + "
                       "delta checkpoint stream into a warm standby, "
                       "verify byte-identity, promote it")
    follow.add_argument("--structure",
                        choices=["count-sketch", "l0", "l1", "hh"],
                        default="l0")
    follow.add_argument("-n", "--universe", type=int, default=4096)
    follow.add_argument("--updates", type=int, default=50_000)
    follow.add_argument("--batches", type=int, default=8,
                        help="leader batches; the first emits the full "
                             "base checkpoint, each later one a delta")
    follow.add_argument("--shards", type=int, default=4)
    follow.add_argument("--chunk", type=int, default=4096)
    follow.add_argument("--compress", choices=["none", "zlib"],
                        default=None,
                        help="delta-frame compression (default zlib)")
    follow.add_argument("--stream", default=None, metavar="PATH",
                        help="write the base+delta stream to this file "
                             "(default: a temporary file)")
    follow.add_argument("--seed", type=int, default=0)

    daemon = sub.add_parser(
        "daemon", help="serve the query service over a socket: an "
                       "asyncio frame server with ingest, the full "
                       "query algebra, live replication and graceful "
                       "drain on SIGTERM")
    daemon.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="listen address (port 0 binds an "
                             "ephemeral port, printed once bound)")
    daemon.add_argument("--structure",
                        choices=["count-sketch", "l0", "l1", "hh",
                                 "ams"],
                        default="hh")
    daemon.add_argument("-n", "--universe", type=int, default=4096)
    daemon.add_argument("--shards", type=int, default=4)
    daemon.add_argument("--chunk", type=int, default=4096)
    daemon.add_argument("--backend", choices=["serial", "process"],
                        default="serial")
    daemon.add_argument("--refresh-every", type=int, default=None,
                        metavar="N",
                        help="auto-capture a snapshot every N ingested "
                             "updates (default 1: every ingest batch "
                             "is a queryable epoch)")
    daemon.add_argument("--keep", type=int, default=4,
                        help="how many epochs stay queryable")
    daemon.add_argument("--cache-size", type=int, default=128,
                        help="LRU result-cache capacity (0 disables)")
    daemon.add_argument("--watermark-high", type=float, default=None,
                        metavar="RATE")
    daemon.add_argument("--watermark-low", type=float, default=None,
                        metavar="RATE")
    daemon.add_argument("--watermark-sustain", type=int, default=3)
    daemon.add_argument("--max-shards", type=int, default=8)
    daemon.add_argument("--queue-depth", type=int, default=64,
                        help="per-connection outbound queue bound "
                             "(the backpressure knob)")
    daemon.add_argument("--drain-timeout", type=float, default=5.0,
                        metavar="SECONDS",
                        help="how long shutdown waits for in-flight "
                             "requests before cancelling them")
    daemon.add_argument("--checkpoint-out", default=None, metavar="PATH",
                        help="write the final checkpoint frame here "
                             "on graceful shutdown")
    daemon.add_argument("--compress", choices=["none", "zlib"],
                        default=None,
                        help="compression of the shutdown checkpoint "
                             "frame (default none)")
    daemon.add_argument("--replicate-compress",
                        choices=["none", "zlib"], default=None,
                        help="compression of the delta frames streamed "
                             "at subscribed followers (default zlib)")
    daemon.add_argument("--max-subscribers", type=int, default=None,
                        metavar="K",
                        help="refuse subscribe beyond K live followers "
                             "(default: unlimited)")
    daemon.add_argument("--seed", type=int, default=0)

    client = sub.add_parser(
        "client", help="talk to a running repro daemon")
    client.add_argument("action",
                        choices=["ping", "health", "ready", "stats",
                                 "ops", "query", "ingest", "follow"])
    client.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="daemon address")
    client.add_argument("--queries", default=None, metavar="SPEC",
                        help="for 'query': comma-separated ops, each "
                             "'op' or 'op:arg' (as in serve "
                             "--queries)")
    client.add_argument("--at", type=int, default=None, metavar="EPOCH",
                        help="for 'query': answer from this retained "
                             "epoch instead of the newest snapshot")
    client.add_argument("-n", "--universe", type=int, default=4096,
                        help="for 'ingest': synthetic stream universe")
    client.add_argument("--updates", type=int, default=10_000,
                        help="for 'ingest': synthetic stream length")
    client.add_argument("--batches", type=int, default=5,
                        help="for 'ingest': how many batches to ship")
    client.add_argument("--until-epoch", type=int, default=None,
                        metavar="EPOCH",
                        help="for 'follow': tail the delta stream "
                             "until the standby reaches this epoch "
                             "(default: drain whatever is available)")
    client.add_argument("--timeout", type=float, default=30.0,
                        metavar="SECONDS")
    client.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint", help="check the project invariants (R001-R008) "
                     "statically; the blocking CI gate")
    lint.add_argument("--root", default=".",
                      help="repository root to lint (default: cwd)")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text", dest="fmt",
                      help="findings as file:line text or a JSON "
                           "document")
    lint.add_argument("--rules", default=None, metavar="IDS",
                      help="comma-separated rule ids to run "
                           "(e.g. R001,R006); default: all")
    lint.add_argument("--baseline", action="store_true",
                      help="refresh the checkpoint-format fingerprint "
                           "baseline instead of linting (refuses on a "
                           "dirty working tree)")
    lint.add_argument("--allow-dirty", action="store_true",
                      help="with --baseline: skip the dirty-tree "
                           "refusal (bootstrap only)")
    return parser


def _cmd_sample(args) -> int:
    from repro import LpSampler, lp_distribution
    from repro.streams import vector_to_stream, zipf_vector

    vec = zipf_vector(args.universe, scale=1000, seed=args.seed)
    stream = vector_to_stream(vec, seed=args.seed)
    truth = lp_distribution(vec, args.p)
    print(f"universe n={args.universe}, p={args.p}, eps={args.eps}")
    for t in range(args.count):
        sampler = LpSampler(args.universe, args.p, args.eps, delta=0.1,
                            seed=args.seed + t)
        stream.apply_to(sampler)
        result = sampler.sample()
        if result.failed:
            print(f"  [{t}] FAIL ({result.reason})")
        else:
            print(f"  [{t}] i={result.index}  x_i~{result.estimate:.1f} "
                  f"(true {vec[result.index]}, "
                  f"Lp weight {truth[result.index]:.4f})")
    return 0


def _cmd_l0(args) -> int:
    from repro import L0Sampler
    from repro.streams import sparse_vector, vector_to_stream

    vec = sparse_vector(args.universe, args.support, seed=args.seed)
    stream = vector_to_stream(vec, seed=args.seed)
    print(f"universe n={args.universe}, |support|={args.support}")
    for t in range(args.count):
        sampler = L0Sampler(args.universe, delta=0.1, seed=args.seed + t)
        stream.apply_to(sampler)
        result = sampler.sample()
        if result.failed:
            print(f"  [{t}] FAIL ({result.reason})")
        else:
            exact = "exact" if vec[result.index] == result.estimate \
                else "WRONG"
            print(f"  [{t}] i={result.index}  x_i={result.estimate:.0f} "
                  f"({exact})")
    return 0


def _cmd_duplicates(args) -> int:
    from repro import DuplicateFinder
    from repro.streams import duplicate_stream

    instance = duplicate_stream(args.universe, seed=args.seed)
    finder = DuplicateFinder(args.universe, delta=args.delta,
                             seed=args.seed)
    finder.process_items(instance.items)
    result = finder.result()
    print(f"stream of {len(instance.items)} items over "
          f"[0, {args.universe})")
    if result.failed:
        print(f"FAIL ({result.reason}) — within the delta={args.delta} "
              f"budget")
        return 1
    genuine = result.index in set(instance.duplicates.tolist())
    print(f"duplicate: {result.index} (genuine: {genuine}); "
          f"space {finder.space_bits()} bits")
    return 0


def _cmd_hh(args) -> int:
    from repro import CountSketchHeavyHitters, is_valid_heavy_hitter_set
    from repro.streams import heavy_hitter_instance, vector_to_stream

    instance = heavy_hitter_instance(args.universe, p=args.p, phi=args.phi,
                                     seed=args.seed)
    algo = CountSketchHeavyHitters(args.universe, args.p, args.phi,
                                   seed=args.seed)
    vector_to_stream(instance.vector, seed=args.seed).apply_to(algo)
    reported = algo.heavy_hitters()
    valid = is_valid_heavy_hitter_set(reported, instance.vector, args.p,
                                      args.phi)
    print(f"planted: {instance.required().tolist()}")
    print(f"reported: {reported.tolist()}  valid: {valid}")
    print(f"space: {algo.space_bits()} bits (m={algo.m})")
    return 0 if valid else 1


def _cmd_space(args) -> int:
    from repro.apps.duplicates import DuplicateFinder
    from repro.baselines.ako import AKOSamplerRound
    from repro.baselines.fis import FISL0Sampler
    from repro.core import L0Sampler, LpSamplerRound

    builders = {
        "lp": lambda n: LpSamplerRound(n, 1.5, 0.25, seed=1),
        "ako": lambda n: AKOSamplerRound(n, 1.5, 0.25, seed=1),
        "l0": lambda n: L0Sampler(n, delta=0.25, seed=1),
        "fis": lambda n: FISL0Sampler(n, seed=1),
        "duplicates": lambda n: DuplicateFinder(n, delta=0.25, seed=1,
                                                sampler_rounds=2),
    }
    build = builders[args.structure]
    print(f"{'log2 n':>8} {'bits':>12}")
    for log_n in args.logn:
        print(f"{log_n:>8} {build(1 << log_n).space_bits():>12}")
    return 0


def _cmd_engine(args) -> int:
    """Drive the sharded engine end to end: ingest half the stream,
    checkpoint, restore (proving mid-stream snapshots work), ingest the
    rest, merge with the binary tree and query the merged structure.
    With ``--reshard-at`` the checkpoint/restore demo becomes an
    elastic-K demo: the live pipeline reshards mid-stream instead."""
    import time

    from repro.core import L0Sampler, L1Sampler
    from repro.apps.heavy_hitters import CountMedianHeavyHitters
    from repro.sketch import CountSketch

    if args.reshard_to is not None and args.reshard_at is None:
        print("error: --reshard-to requires --reshard-at", file=sys.stderr)
        return 2
    if args.reshard_to is not None and args.reshard_to < 1:
        print("error: --reshard-to must be at least 1", file=sys.stderr)
        return 2
    if args.reshard_at is not None and args.checkpoint_format != "full":
        print("error: --checkpoint-format delta needs the "
              "checkpoint/restore demo (drop --reshard-at)",
              file=sys.stderr)
        return 2

    n = args.universe
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xE17)))
    indices = rng.integers(0, n, size=args.updates, dtype=np.int64)
    deltas = rng.integers(-3, 10, size=args.updates, dtype=np.int64)
    # plant a few hot coordinates so samplers and HH have a signal
    hot = rng.choice(n, size=3, replace=False)
    hot_mask = rng.random(args.updates) < 0.15
    indices[hot_mask] = rng.choice(hot, size=int(hot_mask.sum()))
    deltas[hot_mask] = np.abs(deltas[hot_mask]) + 1

    factories = {
        "count-sketch": lambda: CountSketch(n, m=32, rows=9,
                                            seed=args.seed),
        "l0": lambda: L0Sampler(n, delta=0.1, seed=args.seed),
        "l1": lambda: L1Sampler(n, eps=0.5, seed=args.seed, rounds=4),
        # strict=False: the demo stream mixes insertions and deletions,
        # so the count-median rule (general updates) is the valid one.
        "hh": lambda: CountMedianHeavyHitters(n, phi=0.1, seed=args.seed,
                                              strict=False),
    }
    from repro.engine import ShardedPipeline

    pipeline = ShardedPipeline(factories[args.structure],
                               shards=args.shards,
                               partition=args.partition,
                               chunk_size=args.chunk,
                               backend=args.backend)
    print(f"engine: {args.structure} x {args.shards} shards "
          f"({args.partition}, chunk={args.chunk}, "
          f"backend={args.backend}) over n={n}")

    if args.reshard_at is not None:
        # elastic K: grow (or shrink) the live pipeline mid-stream and
        # keep ingesting — no replay, no checkpoint round-trip
        at = min(max(0, args.reshard_at), args.updates)
        new_k = (args.reshard_to if args.reshard_to is not None
                 else 2 * args.shards)
        start = time.perf_counter()
        pipeline.ingest(indices[:at], deltas[:at])
        reshard_start = time.perf_counter()
        pipeline.reshard(new_k)
        reshard_ms = (time.perf_counter() - reshard_start) * 1e3
        pipeline.ingest(indices[at:], deltas[at:])
        pipeline.flush()           # count applied updates, not queued ones
        elapsed = time.perf_counter() - start
        print(f"ingested {pipeline.updates_ingested} updates "
              f"(resharded {args.shards} -> {pipeline.shards} shards at "
              f"update {at} in {reshard_ms:.1f} ms) "
              f"in {elapsed:.3f}s = {args.updates / elapsed:,.0f} "
              f"updates/s")
    elif args.checkpoint_format == "delta":
        # base at a quarter, delta of the next quarter, restore from
        # base + delta (byte-identical to a full checkpoint at half)
        half = ((args.updates // 2 // args.chunk) * args.chunk
                or args.updates // 2)
        quarter = ((half // 2 // args.chunk) * args.chunk or half // 2)
        start = time.perf_counter()
        pipeline.ingest(indices[:quarter], deltas[:quarter])
        base = pipeline.checkpoint(compress=args.compress)
        base_epoch = pipeline.updates_ingested
        pipeline.ingest(indices[quarter:half], deltas[quarter:half])
        delta = pipeline.checkpoint(since=base_epoch,
                                    compress=args.compress)
        pipeline.close()
        pipeline = ShardedPipeline.restore(base, backend=args.backend,
                                           deltas=[delta])
        pipeline.ingest(indices[half:], deltas[half:])
        pipeline.flush()           # count applied updates, not queued ones
        elapsed = time.perf_counter() - start
        print(f"ingested {pipeline.updates_ingested} updates "
              f"(base at {base_epoch}: {len(base)} bytes; delta to "
              f"{half}: {len(delta)} bytes = "
              f"{len(delta) / max(1, len(base)):.2%} of the base) "
              f"in {elapsed:.3f}s = {args.updates / elapsed:,.0f} "
              f"updates/s")
    else:
        # snapshot on a chunk boundary when possible; for short streams
        # fall back to mid-stream so the checkpoint always carries state
        half = ((args.updates // 2 // args.chunk) * args.chunk
                or args.updates // 2)
        start = time.perf_counter()
        pipeline.ingest(indices[:half], deltas[:half])
        blob = pipeline.checkpoint(compress=args.compress)
        pipeline.close()
        pipeline = ShardedPipeline.restore(blob, backend=args.backend)
        pipeline.ingest(indices[half:], deltas[half:])
        pipeline.flush()           # count applied updates, not queued ones
        elapsed = time.perf_counter() - start
        print(f"ingested {pipeline.updates_ingested} updates "
              f"(checkpoint/restore at {half}: {len(blob)} bytes) "
              f"in {elapsed:.3f}s = {args.updates / elapsed:,.0f} "
              f"updates/s")

    merged = pipeline.merged()
    pipeline.close()
    if args.structure in ("l0", "l1"):
        result = merged.sample()
        if result.failed:
            print(f"merged sample: FAIL ({result.reason})")
        else:
            print(f"merged sample: i={result.index} "
                  f"x_i~{result.estimate:.1f}")
    elif args.structure == "hh":
        hitters = merged.heavy_hitters()
        print(f"merged heavy hitters: {hitters.tolist()[:10]}"
              f"{' ...' if hitters.size > 10 else ''}")
    else:
        idx, val = merged.best_sparse_approximation(sparsity=5)
        print("merged top-5 estimates: "
              + ", ".join(f"x[{i}]~{v:.0f}" for i, v in zip(idx, val)))
    return 0


#: How a CLI query spec's ``op:arg`` value maps onto the algebra's
#: keyword argument (ops absent here take no argument).
_SERVE_ARG_SPEC = {
    "heavy_hitters": ("phi", float),
    "point": ("index", int),
    "norm": ("p", float),
    "sample_l0": ("count", int),
    "top": ("count", int),
}

#: Ops that need a second live snapshot and so have no CLI form.
_SERVE_UNSERVABLE = ("inner",)

#: Default query round per servable structure.
_SERVE_DEFAULT_QUERIES = {
    "count-sketch": "top:5",
    "l0": "sample_l0",
    "l1": "sample_lp",
    "hh": "heavy_hitters",
    "ams": "norm:2",
}


def _parse_serve_queries(spec: str, served_type) -> list:
    """Parse a query spec against a local structure type."""
    from repro.engine import query_capabilities

    return _parse_query_spec(spec, set(query_capabilities(served_type)),
                             served_type.__name__)


def _parse_query_spec(spec: str, supported: set, type_name: str) -> list:
    """``"op,op:arg,..."`` -> [(label, op, kwargs)]; ValueError says
    what's wrong (unknown op, unsupported by the structure, malformed
    arg).  The label is the spec item as the user wrote it, so two
    invocations of one op with different arguments stay distinct in
    the report.  ``supported`` is the op-name set the target serves —
    locally introspected (serve) or reported by a daemon (client)."""
    from repro.engine import query_algebra

    algebra = query_algebra()
    parsed = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            raise ValueError("empty query in --queries")
        op, _, raw = item.partition(":")
        if op in _SERVE_UNSERVABLE:
            raise ValueError(
                f"query {op!r} needs a second snapshot operand and "
                f"cannot be driven from --queries")
        if op not in algebra:
            raise ValueError(
                f"unknown query {op!r}; the algebra is: "
                f"{', '.join(algebra)}")
        if op not in supported:
            raise ValueError(
                f"{type_name} does not support {op!r}; it "
                f"supports: {', '.join(sorted(supported)) or 'nothing'}")
        kwargs = {}
        if raw:
            if op not in _SERVE_ARG_SPEC:
                raise ValueError(f"query {op!r} takes no argument "
                                 f"(got {raw!r})")
            name, cast = _SERVE_ARG_SPEC[op]
            try:
                kwargs[name] = cast(raw)
            except ValueError:
                raise ValueError(
                    f"bad argument {raw!r} for query {op!r} "
                    f"(expected {cast.__name__})") from None
        parsed.append((item, op, kwargs))
    return parsed


def _serve_policy(args, batch: int):
    """The watermark policy the flags describe (None when disabled).

    ``min_batch`` is pinned to the loop's actual batch size: the
    default (256) exists to discard noisy tiny-batch rate estimates in
    real services, but here every batch is the same deliberate size —
    a user who configured watermarks must never get a silently inert
    autoscaler just because ``--updates/--batches`` came out small.
    """
    from repro.service import WatermarkPolicy

    if (args.watermark_high is None) != (args.watermark_low is None):
        raise ValueError(
            "--watermark-high and --watermark-low must be given "
            "together")
    if args.watermark_high is None:
        return None
    return WatermarkPolicy(high=args.watermark_high,
                           low=args.watermark_low,
                           sustain=args.watermark_sustain,
                           max_shards=args.max_shards,
                           min_shards=1,
                           min_batch=max(1, min(256, batch)))


def _service_structures(n: int, seed: int) -> tuple[dict, dict]:
    """The servable structure zoo: ``(factories, served_types)`` maps
    shared by ``serve`` (in-process loop) and ``daemon`` (socket)."""
    from repro.core import L0Sampler, L1Sampler
    from repro.apps.heavy_hitters import CountMedianHeavyHitters
    from repro.sketch import AMSSketch, CountSketch

    factories = {
        "count-sketch": lambda: CountSketch(n, m=32, rows=9, seed=seed),
        "l0": lambda: L0Sampler(n, delta=0.1, seed=seed),
        "l1": lambda: L1Sampler(n, eps=0.5, seed=seed, rounds=4),
        "hh": lambda: CountMedianHeavyHitters(n, phi=0.1, seed=seed,
                                              strict=False),
        "ams": lambda: AMSSketch(n, groups=7, per_group=6, seed=seed),
    }
    served_types = {
        "count-sketch": CountSketch,
        "l0": L0Sampler,
        "l1": L1Sampler,
        "hh": CountMedianHeavyHitters,
        "ams": AMSSketch,
    }
    return factories, served_types


def _parse_listen(spec: str, flag: str = "--listen") -> tuple[str, int]:
    """``HOST:PORT`` -> (host, port); ValueError names what's wrong
    (missing colon, empty host, non-numeric or out-of-range port).
    Port 0 is legal: bind an ephemeral port (printed once bound)."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"{flag} must be HOST:PORT, not {spec!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"{flag} port must be an integer, not {port_text!r}") \
            from None
    if not 0 <= port <= 65535:
        raise ValueError(
            f"{flag} port must be in 0..65535, not {port}")
    return host, port


def _cmd_serve(args) -> int:
    """Ingest-while-query: feed a synthetic stream in batches and
    answer the requested queries from epoch-versioned snapshots after
    every batch, then report the service counters."""
    n = args.universe
    factories, served_types = _service_structures(n, args.seed)
    served_type = served_types[args.structure]

    # Flag validation first — a bad spec must fail before any
    # structure is built, worker processes spawn or updates flow.
    try:
        if args.universe < 8:
            raise ValueError("--universe must be >= 8")
        if args.shards < 1:
            raise ValueError("--shards must be >= 1")
        if args.chunk < 1:
            raise ValueError("--chunk must be >= 1")
        if args.updates < 1:
            raise ValueError("--updates must be >= 1")
        if args.batches < 1:
            raise ValueError("--batches must be >= 1")
        if args.refresh_every is not None and args.refresh_every < 1:
            raise ValueError(
                f"--refresh-every must be >= 1, not {args.refresh_every}")
        if args.keep < 1:
            raise ValueError(f"--keep must be >= 1, not {args.keep}")
        if args.cache_size < 0:
            raise ValueError(
                f"--cache-size must be >= 0, not {args.cache_size}")
        policy = _serve_policy(args, max(1, args.updates // args.batches))
        spec = (args.queries if args.queries is not None
                else _SERVE_DEFAULT_QUERIES[args.structure])
        queries = _parse_serve_queries(spec, served_type)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.engine import ShardedPipeline
    from repro.service import QueryService

    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0x5EF)))
    indices = rng.integers(0, n, size=args.updates, dtype=np.int64)
    deltas = rng.integers(-3, 10, size=args.updates, dtype=np.int64)
    hot = rng.choice(n, size=3, replace=False)
    hot_mask = rng.random(args.updates) < 0.2
    indices[hot_mask] = rng.choice(hot, size=int(hot_mask.sum()))
    deltas[hot_mask] = np.abs(deltas[hot_mask]) + 1

    batch = max(1, args.updates // args.batches)
    refresh = args.refresh_every if args.refresh_every is not None \
        else batch
    pipeline = ShardedPipeline(factories[args.structure],
                               shards=args.shards,
                               chunk_size=args.chunk,
                               backend=args.backend)
    print(f"serving {args.structure} x {args.shards} shards "
          f"(backend={args.backend}, refresh every {refresh} updates, "
          f"keep {args.keep} epochs, cache {args.cache_size}) over "
          f"n={n}")
    print(f"queries per round: {spec}")
    with QueryService(pipeline, refresh_every=refresh, keep=args.keep,
                      cache_size=args.cache_size, policy=policy) as svc:
        answers = {}
        for start in range(0, args.updates, batch):
            stop = min(start + batch, args.updates)
            svc.ingest(indices[start:stop], deltas[start:stop])
            for label, op, kwargs in queries:
                answers[label] = svc.query(op, **kwargs)
        final_epoch = svc.refresh().epoch
        for label, op, kwargs in queries:
            answers[label] = svc.query(op, **kwargs)
        stats = svc.stats
        for label, value in answers.items():
            text = str(value)
            print(f"  {label} @ epoch {final_epoch}: "
                  f"{text[:70] + ' ...' if len(text) > 70 else text}")
        print(f"served {stats.queries} queries over "
              f"{stats.snapshots_captured} snapshots "
              f"(epochs kept: {svc.epochs})")
        print(f"cache: {stats.cache_hits} hits / "
              f"{stats.cache_misses} misses "
              f"(hit rate {stats.hit_rate:.0%}); "
              f"ingested {stats.ingest_updates} updates; "
              f"reshards: {stats.reshards} "
              f"(final K={svc.pipeline.shards})")
        if args.checkpoint_out is not None:
            blob = svc.pipeline.checkpoint(
                compress=args.compress or "none")
            with open(args.checkpoint_out, "wb") as out:
                out.write(blob)
            print(f"checkpoint written: {args.checkpoint_out} "
                  f"({len(blob)} bytes, epoch "
                  f"{svc.pipeline.updates_ingested})")
    return 0


def _cmd_follow(args) -> int:
    """Leader/follower replication demo: the leader ingests in
    batches, writing one full checkpoint then a delta frame per batch
    to a stream file; a follower tails the file, is verified
    byte-identical to the leader at the final epoch, and is promoted
    to a live pipeline that answers a query."""
    import tempfile
    from pathlib import Path

    from repro.core import L0Sampler, L1Sampler
    from repro.apps.heavy_hitters import CountMedianHeavyHitters
    from repro.sketch import CountSketch
    from repro.engine import FollowerPipeline, ShardedPipeline
    from repro.engine.checkpoint import checkpoint as snapshot_structure

    n = args.universe
    factories = {
        "count-sketch": lambda: CountSketch(n, m=32, rows=9,
                                            seed=args.seed),
        "l0": lambda: L0Sampler(n, delta=0.1, seed=args.seed),
        "l1": lambda: L1Sampler(n, eps=0.5, seed=args.seed, rounds=4),
        "hh": lambda: CountMedianHeavyHitters(n, phi=0.1, seed=args.seed,
                                              strict=False),
    }
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xF0)))
    indices = rng.integers(0, n, size=args.updates, dtype=np.int64)
    deltas = rng.integers(-3, 10, size=args.updates, dtype=np.int64)
    hot = rng.choice(n, size=3, replace=False)
    hot_mask = rng.random(args.updates) < 0.15
    indices[hot_mask] = rng.choice(hot, size=int(hot_mask.sum()))
    deltas[hot_mask] = np.abs(deltas[hot_mask]) + 1

    batch = max(1, args.updates // args.batches)
    path = (Path(args.stream) if args.stream is not None
            else Path(tempfile.mkstemp(prefix="repro-follow-",
                                       suffix=".wire")[1]))
    leader = ShardedPipeline(factories[args.structure],
                             shards=args.shards, chunk_size=args.chunk)
    print(f"leader: {args.structure} x {args.shards} shards over n={n}; "
          f"stream: {path}")

    # Batch 0 seeds the stream with the full base checkpoint; every
    # later batch appends one delta frame, which the follower tails.
    leader.ingest(indices[:batch], deltas[:batch])
    base = leader.checkpoint()
    last_epoch = leader.updates_ingested
    path.write_bytes(base)
    follower = FollowerPipeline(base)
    offset = len(base)              # the delta tail starts after the base
    delta_bytes = 0
    applied_total = 0
    for start in range(batch, args.updates, batch):
        stop = min(start + batch, args.updates)
        leader.ingest(indices[start:stop], deltas[start:stop])
        frame = leader.checkpoint(since=last_epoch,
                                  compress=args.compress)
        last_epoch = leader.updates_ingested
        with open(path, "ab") as out:
            out.write(frame)
        delta_bytes += len(frame)
        applied, offset = follower.follow_file(path, offset)
        applied_total += applied
    identical = (snapshot_structure(follower.merged())
                 == snapshot_structure(leader.merged()))
    print(f"follower applied {applied_total} deltas "
          f"({delta_bytes} bytes vs {len(base)}-byte base) and sits at "
          f"epoch {follower.epoch}/{leader.updates_ingested}")
    print(f"byte-identical to leader merged(): {identical}")
    promoted = follower.promote()
    merged = promoted.merged()
    leader.close()
    promoted.close()
    if args.structure in ("l0", "l1"):
        result = merged.sample()
        answer = (f"FAIL ({result.reason})" if result.failed
                  else f"i={result.index} x_i~{result.estimate:.1f}")
        print(f"promoted sample: {answer}")
    elif args.structure == "hh":
        hitters = merged.heavy_hitters()
        print(f"promoted heavy hitters: {hitters.tolist()[:10]}"
              f"{' ...' if hitters.size > 10 else ''}")
    else:
        idx, val = merged.best_sparse_approximation(sparsity=5)
        print("promoted top-5 estimates: "
              + ", ".join(f"x[{i}]~{v:.0f}" for i, v in zip(idx, val)))
    if args.stream is None:
        path.unlink(missing_ok=True)
    return 0 if identical else 1


def _cmd_daemon(args) -> int:
    """Run the asyncio frame server until SIGTERM/SIGINT, then drain
    and (optionally) write the final checkpoint frame."""
    # Flag validation first — a bad spec must fail before any
    # structure is built, worker processes spawn or sockets bind.
    try:
        if args.universe < 8:
            raise ValueError("--universe must be >= 8")
        if args.shards < 1:
            raise ValueError("--shards must be >= 1")
        if args.chunk < 1:
            raise ValueError("--chunk must be >= 1")
        if args.refresh_every is not None and args.refresh_every < 1:
            raise ValueError(
                f"--refresh-every must be >= 1, not {args.refresh_every}")
        if args.keep < 1:
            raise ValueError(f"--keep must be >= 1, not {args.keep}")
        if args.cache_size < 0:
            raise ValueError(
                f"--cache-size must be >= 0, not {args.cache_size}")
        if args.queue_depth < 1:
            raise ValueError(
                f"--queue-depth must be >= 1, not {args.queue_depth}")
        if args.drain_timeout <= 0:
            raise ValueError(
                f"--drain-timeout must be > 0, not {args.drain_timeout}")
        if args.max_subscribers is not None and args.max_subscribers < 1:
            raise ValueError(
                f"--max-subscribers must be >= 1, not "
                f"{args.max_subscribers}")
        policy = _serve_policy(args, 256)
        if args.listen is None:
            extras = [flag for flag, value in
                      (("--replicate-compress", args.replicate_compress),
                       ("--max-subscribers", args.max_subscribers))
                      if value is not None]
            if extras:
                raise ValueError(
                    f"replication flags ({', '.join(extras)}) require "
                    f"--listen")
            raise ValueError("--listen HOST:PORT is required")
        host, port = _parse_listen(args.listen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import asyncio
    import signal

    from repro.engine import ShardedPipeline
    from repro.net import ReproServer
    from repro.service import QueryService

    factories, _ = _service_structures(args.universe, args.seed)
    refresh = (args.refresh_every if args.refresh_every is not None
               else 1)
    pipeline = ShardedPipeline(factories[args.structure],
                               shards=args.shards,
                               chunk_size=args.chunk,
                               backend=args.backend)

    async def _run(svc) -> None:
        server = ReproServer(
            svc, host, port,
            queue_depth=args.queue_depth,
            checkpoint_out=args.checkpoint_out,
            checkpoint_compress=args.compress or "none",
            replicate_compress=args.replicate_compress or "zlib",
            max_subscribers=args.max_subscribers,
            drain_timeout=args.drain_timeout)
        await server.start()
        # One parseable line: tests (and humans) read the bound port
        # back from it when --listen used port 0.
        print(f"repro daemon: serving {args.structure} x "
              f"{args.shards} shards on {server.host}:{server.port} "
              f"(backend={args.backend}, refresh every {refresh} "
              f"updates)", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.request_shutdown)
        await server.wait_stopped()
        print(f"repro daemon: drained at epoch "
              f"{svc.pipeline.updates_ingested}", flush=True)
        if server.checkpoint_out is not None:
            print(f"checkpoint written: {server.checkpoint_out} "
                  f"({len(server.checkpoint_blob)} bytes, epoch "
                  f"{svc.pipeline.updates_ingested})", flush=True)

    with QueryService(pipeline, refresh_every=refresh, keep=args.keep,
                      cache_size=args.cache_size, policy=policy) as svc:
        asyncio.run(_run(svc))
    return 0


def _cmd_client(args) -> int:
    """One action against a running daemon; transport failures exit 1
    with a message, flag misuse exits 2 before connecting."""
    import json

    try:
        if args.connect is None:
            raise ValueError("--connect HOST:PORT is required")
        host, port = _parse_listen(args.connect, flag="--connect")
        if args.timeout <= 0:
            raise ValueError(
                f"--timeout must be > 0, not {args.timeout}")
        if args.action == "query" and args.queries is None:
            raise ValueError("the query action requires --queries SPEC")
        if args.action == "ingest":
            if args.universe < 8:
                raise ValueError("--universe must be >= 8")
            if args.updates < 1:
                raise ValueError("--updates must be >= 1")
            if args.batches < 1:
                raise ValueError("--batches must be >= 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.net import NetError, ReproClient, SocketFollower

    try:
        if args.action == "follow":
            return _client_follow(args, host, port)
        with ReproClient(host, port, timeout=args.timeout) as client:
            if args.action == "ping":
                reply = client.ping()
                print(f"pong @ epoch {reply.meta.get('epoch')}")
            elif args.action in ("health", "stats", "ops"):
                result = {"health": client.health,
                          "stats": client.stats,
                          "ops": client.operations}[args.action]()
                print(json.dumps(result, indent=2, sort_keys=True))
            elif args.action == "ready":
                ready = client.ready()
                print("ready" if ready else "not ready (draining)")
                return 0 if ready else 1
            elif args.action == "ingest":
                return _client_ingest(args, client)
            else:
                return _client_query(args, client)
    except (ConnectionError, TimeoutError, OSError, NetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _client_query(args, client) -> int:
    from repro.net import NetError

    health = client.health()
    supported = set(client.operations())
    try:
        queries = _parse_query_spec(args.queries, supported,
                                    health["structure"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for label, op, kwargs in queries:
        try:
            answer = client.query(op, at=args.at, **kwargs)
        except NetError as exc:
            print(f"  {label}: error {exc}", file=sys.stderr)
            return 1
        text = str(answer.result)
        print(f"  {label} @ epoch {answer.epoch}: "
              f"{text[:70] + ' ...' if len(text) > 70 else text}")
    return 0


def _client_ingest(args, client) -> int:
    rng = np.random.default_rng(np.random.SeedSequence((args.seed,
                                                        0x4E7)))
    n = args.universe
    indices = rng.integers(0, n, size=args.updates, dtype=np.int64)
    deltas = rng.integers(-3, 10, size=args.updates, dtype=np.int64)
    hot = rng.choice(n, size=3, replace=False)
    hot_mask = rng.random(args.updates) < 0.2
    indices[hot_mask] = rng.choice(hot, size=int(hot_mask.sum()))
    deltas[hot_mask] = np.abs(deltas[hot_mask]) + 1
    batch = max(1, args.updates // args.batches)
    epoch = None
    for start in range(0, args.updates, batch):
        stop = min(start + batch, args.updates)
        reply = client.ingest(indices[start:stop], deltas[start:stop])
        epoch = reply.result["epoch"]
        print(f"  ingested {reply.result['count']} updates -> "
              f"epoch {epoch}")
    print(f"done: {args.updates} updates over n={n}, server at "
          f"epoch {epoch}")
    return 0


def _client_follow(args, host: str, port: int) -> int:
    from repro.net import SocketFollower

    with SocketFollower(host, port, timeout=args.timeout) as follower:
        print(f"subscribed: base epoch {follower.base_epoch} "
              f"({follower.follower.shard_type.__name__})")
        if args.until_epoch is not None:
            applied = follower.wait_for_epoch(args.until_epoch,
                                              timeout=args.timeout)
        else:
            applied = follower.poll(timeout=min(1.0, args.timeout))
        print(f"follower applied {applied} deltas; standby at epoch "
              f"{follower.epoch} "
              f"({len(follower.acked_epochs)} acked states)")
        promoted = follower.promote()
        merged = promoted.merged()
        promoted.close()
        print(f"promoted standby serves {type(merged).__name__} "
              f"at epoch {follower.epoch}")
    return 0


def _cmd_lint(args) -> int:
    # Imported lazily: the analysis package is pure stdlib but there is
    # no reason to parse rule modules for the workload subcommands.
    from pathlib import Path

    from . import analysis

    try:
        root = Path(args.root)
        config = analysis.LintConfig.load(root)
        ctx = analysis.LintContext(root, config)
        if args.baseline:
            path = analysis.write_baseline(ctx,
                                           allow_dirty=args.allow_dirty)
            print(f"format baseline written: {path}")
            return 0
        only = (set(part.strip() for part in args.rules.split(","))
                if args.rules else None)
        findings = analysis.run_lint(root, config=config, only=only,
                                     ctx=ctx)
    except (analysis.LintError, RuntimeError) as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        sys.stdout.write(analysis.render_json(findings, root, config))
    else:
        sys.stdout.write(analysis.render_text(findings, len(ctx.files)))
    return 1 if findings else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "sample": _cmd_sample,
        "l0": _cmd_l0,
        "duplicates": _cmd_duplicates,
        "hh": _cmd_hh,
        "space": _cmd_space,
        "engine": _cmd_engine,
        "serve": _cmd_serve,
        "follow": _cmd_follow,
        "daemon": _cmd_daemon,
        "client": _cmd_client,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
