"""Tests for the command-line interface (repro/cli.py)."""

import re
import subprocess
import sys

import pytest

from repro.cli import main


class TestInProcess:
    def test_sample(self, capsys):
        assert main(["sample", "-n", "256", "--count", "3",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "universe n=256" in out

    def test_l0(self, capsys):
        assert main(["l0", "-n", "256", "--support", "20",
                     "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out

    def test_duplicates(self, capsys):
        code = main(["duplicates", "-n", "128", "--seed", "2"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "stream of 129 items" in out

    def test_hh(self, capsys):
        assert main(["hh", "-n", "256", "--phi", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "valid: True" in out

    @pytest.mark.parametrize("structure", ["lp", "ako", "l0", "fis"])
    def test_space(self, capsys, structure):
        assert main(["space", structure, "--logn", "8", "10"]) == 0
        out = capsys.readouterr().out
        assert "bits" in out

    def test_engine_serial(self, capsys):
        assert main(["engine", "--structure", "l0", "-n", "512",
                     "--updates", "4000", "--shards", "3",
                     "--chunk", "512"]) == 0
        out = capsys.readouterr().out
        assert "backend=serial" in out
        assert "ingested 4000 updates" in out

    def test_engine_reshard_mid_stream(self, capsys):
        assert main(["engine", "--structure", "count-sketch", "-n", "512",
                     "--updates", "4000", "--shards", "2",
                     "--chunk", "512", "--reshard-at", "2000",
                     "--reshard-to", "5"]) == 0
        out = capsys.readouterr().out
        assert "resharded 2 -> 5 shards at update 2000" in out
        assert "ingested 4000 updates" in out

    def test_engine_reshard_default_target_doubles_k(self, capsys):
        assert main(["engine", "--structure", "l0", "-n", "512",
                     "--updates", "2000", "--shards", "3",
                     "--chunk", "256", "--reshard-at", "1000"]) == 0
        out = capsys.readouterr().out
        assert "resharded 3 -> 6 shards" in out

    def test_engine_reshard_flag_misuse_rejected(self, capsys):
        # --reshard-to without --reshard-at would silently do nothing
        assert main(["engine", "--structure", "l0", "-n", "256",
                     "--updates", "500", "--reshard-to", "4"]) == 2
        assert "requires --reshard-at" in capsys.readouterr().err
        # --reshard-to 0 must not silently fall back to the default
        assert main(["engine", "--structure", "l0", "-n", "256",
                     "--updates", "500", "--reshard-at", "250",
                     "--reshard-to", "0"]) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_engine_delta_checkpoint(self, capsys):
        assert main(["engine", "--structure", "l0", "-n", "512",
                     "--updates", "4000", "--shards", "3",
                     "--chunk", "256",
                     "--checkpoint-format", "delta"]) == 0
        out = capsys.readouterr().out
        assert "ingested 4000 updates" in out
        assert "base at" in out and "delta to" in out

    def test_engine_delta_conflicts_with_reshard_demo(self, capsys):
        assert main(["engine", "--structure", "l0", "-n", "256",
                     "--updates", "500", "--reshard-at", "250",
                     "--checkpoint-format", "delta"]) == 2
        assert "drop --reshard-at" in capsys.readouterr().err

    def test_follow_round_trip(self, capsys, tmp_path):
        stream = tmp_path / "stream.wire"
        assert main(["follow", "--structure", "l0", "-n", "512",
                     "--updates", "4000", "--batches", "4",
                     "--shards", "3", "--chunk", "256",
                     "--stream", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "follower applied 3 deltas" in out
        assert "byte-identical to leader merged(): True" in out
        assert "promoted sample:" in out
        assert stream.exists()             # --stream paths are kept

    def test_serve_checkpoint_out(self, capsys, tmp_path):
        from repro.service.snapshot import Snapshot

        path = tmp_path / "final.wire"
        assert main(["serve", "--structure", "hh", "-n", "512",
                     "--updates", "2000", "--batches", "2",
                     "--chunk", "256", "--checkpoint-out", str(path),
                     "--compress", "zlib"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint written:" in out
        snapshot = Snapshot.from_checkpoint(path.read_bytes())
        assert snapshot.epoch == 2000

    def test_engine_process_backend(self, capsys):
        assert main(["engine", "--structure", "count-sketch", "-n", "512",
                     "--updates", "4000", "--shards", "2",
                     "--chunk", "512", "--backend", "process"]) == 0
        out = capsys.readouterr().out
        assert "backend=process" in out
        assert "ingested 4000 updates" in out

    @pytest.mark.parametrize("argv", [
        ["engine", "--structure", "l0", "--backend", "process"],
        ["serve", "--structure", "hh", "--backend", "process"],
        ["daemon", "--listen", "127.0.0.1:0", "--backend", "process"],
    ], ids=["engine", "serve", "daemon"])
    def test_no_transport_flag(self, argv, capsys):
        """Pickle queues are the only chunk transport, so no
        subcommand offers a choice of one."""
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--transport", "pickle"])
        assert exit_info.value.code == 2
        assert "--transport" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_serve_default_round(self, capsys):
        assert main(["serve", "--structure", "hh", "-n", "512",
                     "--updates", "4000", "--batches", "4",
                     "--shards", "2", "--chunk", "256"]) == 0
        out = capsys.readouterr().out
        assert "serving hh x 2 shards" in out
        assert "heavy_hitters @ epoch 4000" in out
        assert "cache:" in out

    def test_serve_explicit_queries_and_cache_hits(self, capsys):
        assert main(["serve", "--structure", "count-sketch", "-n", "256",
                     "--updates", "2000", "--batches", "4",
                     "--chunk", "128", "--refresh-every", "1000",
                     "--queries", "point:7,point:9,top:3"]) == 0
        out = capsys.readouterr().out
        # Repeated ops with different args stay distinct in the report.
        assert "point:7 @ epoch 2000" in out
        assert "point:9 @ epoch 2000" in out
        assert "top:3 @ epoch 2000" in out
        # Two query rounds per held epoch -> the second is a pure hit.
        assert int(re.search(r"cache: (\d+) hits", out).group(1)) > 0

    def test_serve_unknown_query_rejected(self, capsys):
        assert main(["serve", "--structure", "hh", "-n", "256",
                     "--updates", "500",
                     "--queries", "frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown query 'frobnicate'" in err
        assert "heavy_hitters" in err           # names the algebra

    def test_serve_unsupported_query_names_the_type(self, capsys):
        assert main(["serve", "--structure", "l0", "-n", "256",
                     "--updates", "500",
                     "--queries", "heavy_hitters"]) == 2
        err = capsys.readouterr().err
        assert "L0Sampler does not support 'heavy_hitters'" in err
        assert "sample_l0" in err               # ... and what it does

    def test_serve_malformed_query_args_rejected(self, capsys):
        assert main(["serve", "--structure", "hh", "-n", "256",
                     "--updates", "500",
                     "--queries", "heavy_hitters:lots"]) == 2
        assert "bad argument 'lots'" in capsys.readouterr().err
        assert main(["serve", "--structure", "l0", "-n", "256",
                     "--updates", "500",
                     "--queries", "support:3"]) == 2
        assert "takes no argument" in capsys.readouterr().err
        assert main(["serve", "--structure", "hh", "-n", "256",
                     "--updates", "500", "--queries", "inner"]) == 2
        assert "second snapshot operand" in capsys.readouterr().err

    def test_serve_topology_flags_validated(self, capsys):
        # These used to escape the validation block as raw tracebacks
        # from deep inside pipeline/workload construction.
        assert main(["serve", "-n", "256", "--updates", "500",
                     "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err
        assert main(["serve", "-n", "256", "--updates", "500",
                     "--chunk", "0"]) == 2
        assert "--chunk must be >= 1" in capsys.readouterr().err
        assert main(["serve", "-n", "2", "--updates", "500"]) == 2
        assert "--universe must be >= 8" in capsys.readouterr().err

    def test_serve_negative_refresh_and_cache_rejected(self, capsys):
        assert main(["serve", "-n", "256", "--updates", "500",
                     "--refresh-every", "-5"]) == 2
        assert "--refresh-every must be >= 1" in capsys.readouterr().err
        assert main(["serve", "-n", "256", "--updates", "500",
                     "--refresh-every", "0"]) == 2
        assert "--refresh-every must be >= 1" in capsys.readouterr().err
        assert main(["serve", "-n", "256", "--updates", "500",
                     "--cache-size", "-1"]) == 2
        assert "--cache-size must be >= 0" in capsys.readouterr().err
        assert main(["serve", "-n", "256", "--updates", "500",
                     "--keep", "0"]) == 2
        assert "--keep must be >= 1" in capsys.readouterr().err

    def test_serve_watermark_thresholds_validated(self, capsys):
        # One watermark without the other would silently disable the
        # autoscaler the user asked for.
        assert main(["serve", "-n", "256", "--updates", "500",
                     "--watermark-high", "100"]) == 2
        assert "must be given together" in capsys.readouterr().err
        # Inverted thresholds would flap between grow and shrink.
        assert main(["serve", "-n", "256", "--updates", "500",
                     "--watermark-high", "10",
                     "--watermark-low", "100"]) == 2
        assert "high > low" in capsys.readouterr().err
        assert main(["serve", "-n", "256", "--updates", "500",
                     "--watermark-high", "100", "--watermark-low", "10",
                     "--watermark-sustain", "0"]) == 2
        assert "sustain" in capsys.readouterr().err

    def test_serve_autoscales_under_load(self, capsys):
        # Real wall-clock offered load is far above 10 updates/s, so
        # the watermark trigger must grow the topology to the cap.
        assert main(["serve", "--structure", "hh", "-n", "256",
                     "--updates", "4000", "--batches", "8",
                     "--shards", "2", "--chunk", "128",
                     "--watermark-high", "10", "--watermark-low", "1",
                     "--watermark-sustain", "2",
                     "--max-shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "final K=4" in out

    def test_serve_autoscales_even_with_tiny_batches(self, capsys):
        # Batches below the policy's default min_batch (256) must not
        # silently disable the autoscaler the user configured: the CLI
        # pins min_batch to its actual batch size.
        assert main(["serve", "--structure", "hh", "-n", "256",
                     "--updates", "2000", "--batches", "20",
                     "--shards", "2", "--chunk", "64",
                     "--watermark-high", "10", "--watermark-low", "1",
                     "--watermark-sustain", "2",
                     "--max-shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "final K=4" in out

    def test_serve_process_backend(self, capsys):
        assert main(["serve", "--structure", "count-sketch", "-n", "256",
                     "--updates", "2000", "--batches", "2",
                     "--shards", "2", "--chunk", "256",
                     "--backend", "process"]) == 0
        out = capsys.readouterr().out
        assert "backend=process" in out
        assert "@ epoch 2000" in out


class TestDaemonFlags:
    def test_listen_is_required(self, capsys):
        assert main(["daemon"]) == 2
        assert "--listen HOST:PORT is required" in capsys.readouterr().err

    def test_malformed_listen_rejected(self, capsys):
        assert main(["daemon", "--listen", "no-port-here"]) == 2
        assert "--listen" in capsys.readouterr().err
        assert main(["daemon", "--listen", ":8080"]) == 2
        assert "--listen must be HOST:PORT" in capsys.readouterr().err
        assert main(["daemon", "--listen", "127.0.0.1:notaport"]) == 2
        assert "--listen port must be an integer" \
            in capsys.readouterr().err
        assert main(["daemon", "--listen", "127.0.0.1:70000"]) == 2
        assert "--listen port must be in 0..65535" \
            in capsys.readouterr().err
        assert main(["daemon", "--listen", "127.0.0.1:-1"]) == 2
        assert "--listen port must be in 0..65535" \
            in capsys.readouterr().err

    def test_replication_flags_require_listen(self, capsys):
        assert main(["daemon", "--max-subscribers", "2"]) == 2
        err = capsys.readouterr().err
        assert "replication flags" in err and "--listen" in err
        assert main(["daemon", "--replicate-compress", "zlib"]) == 2
        err = capsys.readouterr().err
        assert "--replicate-compress" in err

    def test_topology_and_server_flags_validated(self, capsys):
        # Validation must fire before anything binds a socket.
        assert main(["daemon", "--listen", "127.0.0.1:0",
                     "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err
        assert main(["daemon", "--listen", "127.0.0.1:0",
                     "--queue-depth", "0"]) == 2
        assert "--queue-depth must be >= 1" in capsys.readouterr().err
        assert main(["daemon", "--listen", "127.0.0.1:0",
                     "--drain-timeout", "0"]) == 2
        assert "--drain-timeout must be > 0" in capsys.readouterr().err
        assert main(["daemon", "--listen", "127.0.0.1:0",
                     "--listen", "127.0.0.1:0",
                     "--max-subscribers", "0"]) == 2
        assert "--max-subscribers must be >= 1" \
            in capsys.readouterr().err


class TestClientFlags:
    def test_connect_is_required(self, capsys):
        assert main(["client", "ping"]) == 2
        assert "--connect HOST:PORT is required" \
            in capsys.readouterr().err

    def test_malformed_connect_rejected(self, capsys):
        assert main(["client", "ping", "--connect", "nope"]) == 2
        assert "--connect" in capsys.readouterr().err
        assert main(["client", "ping",
                     "--connect", "127.0.0.1:zzz"]) == 2
        assert "--connect port must be an integer" \
            in capsys.readouterr().err

    def test_query_requires_spec(self, capsys):
        assert main(["client", "query",
                     "--connect", "127.0.0.1:1"]) == 2
        assert "requires --queries" in capsys.readouterr().err

    def test_ingest_flags_validated(self, capsys):
        assert main(["client", "ingest", "--connect", "127.0.0.1:1",
                     "--updates", "0"]) == 2
        assert "--updates must be >= 1" in capsys.readouterr().err
        assert main(["client", "ingest", "--connect", "127.0.0.1:1",
                     "--batches", "0"]) == 2
        assert "--batches must be >= 1" in capsys.readouterr().err

    def test_connection_refused_is_exit_1(self, capsys):
        # Port 1 is reserved and never listening in the test env:
        # transport failure, not flag misuse.
        assert main(["client", "ping", "--connect", "127.0.0.1:1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestAsModule:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "space", "l0",
             "--logn", "8"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "bits" in proc.stdout
