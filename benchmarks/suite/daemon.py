"""Run the real ``repro daemon`` for the benchmark, optionally traced.

    python benchmarks/suite/daemon.py [--trace SPANS] DAEMON-FLAGS...

Every flag other than ``--trace`` goes to ``repro.cli.main(["daemon",
...])`` unchanged, in this process.  With ``--trace`` the span wrappers
of :mod:`tracing` are installed first, and the recorded spans are
written to ``SPANS`` once the daemon has drained (shard workers append
theirs to ``SPANS.<pid>``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import tracing  # noqa: E402  (needs the path above for repro)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="SPANS",
                        help="record spans and write them here on drain")
    args, daemon_flags = parser.parse_known_args(argv)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.trace)
        tracing.install_daemon(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["daemon", *daemon_flags])
    if tracer is not None:
        tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
