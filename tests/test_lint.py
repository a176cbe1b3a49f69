"""Tests for ``repro lint`` (src/repro/analysis).

Three layers:

* **fixture projects** — tiny synthetic packages in ``tmp_path``, one
  snippet per rule that must flag and a sibling that must pass, plus
  suppression/R000 behaviour and the JSON document shape;
* **kill tests** — copy the real ``src/`` tree, reintroduce each class
  of bug the gate exists to catch (oracle deleted, unseeded RNG in
  ``core/``, checkpoint payload reshaped without a version bump) and
  assert the CLI exits 1 naming the right rule, file and line;
* **the meta-test** — the live tree itself lints clean, so the gate in
  CI can never be red on an untouched checkout.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro import analysis
from repro.analysis import (LintConfig, LintContext, LintError, run_lint,
                            write_baseline)
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# fixture projects


def _mini_project(tmp_path: Path, files: dict[str, str],
                  ini_extra: str = "") -> Path:
    """A throwaway project: ``pkg/`` package, no inspection pass."""
    root = tmp_path / "proj"
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "__init__.py").write_text("")
    for rel, source in files.items():
        path = root / "pkg" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    (root / "pytest.ini").write_text(textwrap.dedent(f"""\
        [repro-lint]
        package = pkg
        state_paths = core sketch
        numeric_paths = sketch
        audited_modules = sketch/kernels.py
        kernel_paths = sketch
        mp_modules = engine/workers.py engine/shm.py
        shm_modules = engine/shm.py
        inspect = false
        {ini_extra}
        """))
    return root


def _lint(root: Path, only: set[str]) -> list:
    return run_lint(root, config=LintConfig.load(root), only=only)


class TestRuleFixtures:
    def test_r001_flags_unseeded_rng_and_clocks(self, tmp_path):
        root = _mini_project(tmp_path, {"core/state.py": """\
            import numpy as np
            import random
            from time import perf_counter

            def jitter():
                rng = np.random.default_rng()
                np.random.seed(4)
                return random.random() + perf_counter()
        """})
        findings = _lint(root, only={"R001"})
        lines = {f.line for f in findings}
        assert all(f.rule == "R001" for f in findings)
        # import random, from time import, default_rng(), np.random.seed,
        # random.random(), perf_counter()
        assert {2, 3, 6, 7, 8} <= lines

    def test_r001_passes_seeded_randomness_and_exempt_paths(self, tmp_path):
        root = _mini_project(tmp_path, {
            "core/state.py": """\
                import numpy as np

                def make(seed):
                    ss = np.random.SeedSequence(seed)
                    return np.random.default_rng(ss)
            """,
            # bench/ is outside state_paths: exempt by construction
            "bench/clocky.py": """\
                import time

                def now():
                    return time.perf_counter()
            """})
        assert _lint(root, only={"R001"}) == []

    def test_r003_flags_fused_path_without_oracle(self, tmp_path):
        root = _mini_project(tmp_path, {"sketch/fast.py": """\
            class Fast:
                def update_many(self, indices, deltas):
                    return indices + deltas
        """}, ini_extra="kernel_tests = tests/test_kernels.py")
        (root / "tests").mkdir()
        (root / "tests" / "test_kernels.py").write_text("Fast = None\n")
        findings = _lint(root, only={"R003"})
        assert [f.rule for f in findings] == ["R003"]
        assert findings[0].path.endswith("sketch/fast.py")
        assert findings[0].line == 2        # the update_many def
        assert "_reference_update_many" in findings[0].message

    def test_r003_passes_paired_and_tested_class(self, tmp_path):
        root = _mini_project(tmp_path, {"sketch/fast.py": """\
            class Fast:
                def update_many(self, indices, deltas):
                    return indices + deltas

                def _reference_update_many(self, indices, deltas):
                    return indices + deltas
        """}, ini_extra="kernel_tests = tests/test_kernels.py")
        (root / "tests").mkdir()
        (root / "tests" / "test_kernels.py").write_text(
            "from pkg.sketch.fast import Fast\n")
        assert _lint(root, only={"R003"}) == []

    def test_r003_flags_oracle_missing_from_suite(self, tmp_path):
        root = _mini_project(tmp_path, {"sketch/fast.py": """\
            class Fast:
                def update_many(self, indices, deltas):
                    return indices + deltas

                def _reference_update_many(self, indices, deltas):
                    return indices + deltas
        """}, ini_extra="kernel_tests = tests/test_kernels.py")
        (root / "tests").mkdir()
        (root / "tests" / "test_kernels.py").write_text("OTHER = 1\n")
        findings = _lint(root, only={"R003"})
        assert len(findings) == 1
        assert "never named" in findings[0].message

    def test_r004_flags_mp_and_shm_outside_allowlist(self, tmp_path):
        root = _mini_project(tmp_path, {
            "core/rogue.py": """\
                import multiprocessing as mp
                from multiprocessing.shared_memory import SharedMemory

                def leak():
                    return SharedMemory(create=True, size=64)
            """,
            "engine/shm.py": """\
                from multiprocessing.shared_memory import SharedMemory

                def orphan(size):
                    return SharedMemory(create=True, size=size)
            """})
        findings = _lint(root, only={"R004"})
        assert all(f.rule == "R004" for f in findings)
        # rogue.py: two bad imports + one bad construction
        rogue = [f for f in findings if "rogue" in f.path]
        assert len(rogue) == 3
        # shm.py: create=True outside a lifecycle-owning class
        orphan = [f for f in findings if f.path.endswith("engine/shm.py")]
        assert len(orphan) == 1 and "close()" in orphan[0].message

    def test_r004_default_allows_shared_memory_nowhere(self, tmp_path):
        """With no ``shm_modules`` configured, even the worker module
        (the one place multiprocessing is allowed) may not construct
        SharedMemory."""
        assert LintConfig().shm_modules == ()
        root = _mini_project(tmp_path, {"engine/workers.py": """\
            from multiprocessing.shared_memory import SharedMemory

            class Ring:
                def __init__(self, size):
                    self._shm = SharedMemory(create=True, size=size)

                def close(self):
                    self._shm.close()
                    self._shm.unlink()
        """})
        ini = root / "pytest.ini"
        ini.write_text("".join(
            line for line in ini.read_text().splitlines(keepends=True)
            if not line.startswith("shm_modules")))
        findings = _lint(root, only={"R004"})
        assert findings and all(f.rule == "R004" for f in findings)
        assert all(f.path.endswith("engine/workers.py") for f in findings)
        assert any("outside the shm_modules allowlist" in f.message
                   for f in findings)

    def test_r004_passes_owned_lifecycle(self, tmp_path):
        root = _mini_project(tmp_path, {"engine/shm.py": """\
            from multiprocessing.shared_memory import SharedMemory

            class Ring:
                def __init__(self, size):
                    self._shm = SharedMemory(create=True, size=size)

                def close(self):
                    self._shm.close()
                    self._shm.unlink()
        """})
        assert _lint(root, only={"R004"}) == []

    def test_r006_flags_dtypeless_literals_and_int_wrap(self, tmp_path):
        root = _mini_project(tmp_path, {"sketch/counters.py": """\
            import numpy as np

            class Counters:
                def __init__(self, n):
                    self.table = np.zeros(n, dtype=np.int64)
                    self.bad = np.zeros(n)

                def absorb(self, deltas):
                    self.table += np.asarray(deltas, dtype=np.int64)
                    local = np.ones(4, dtype=np.uint64)
                    return local % 7
        """})
        findings = _lint(root, only={"R006"})
        rules = {(f.line, f.rule) for f in findings}
        assert (6, "R006") in rules      # dtype-less np.zeros
        assert (9, "R006") in rules      # += on known int array
        assert (11, "R006") in rules     # % on known int array
        assert len(findings) == 3

    def test_r006_exempts_audited_module_arithmetic_only(self, tmp_path):
        root = _mini_project(tmp_path, {"sketch/kernels.py": """\
            import numpy as np

            def scatter(table, deltas):
                table += deltas          # audited: arithmetic exempt
                return np.zeros(3)       # dtype-less: still flagged
        """})
        findings = _lint(root, only={"R006"})
        assert [f.line for f in findings] == [5]

    def test_r007_flags_blocking_calls_in_coroutines(self, tmp_path):
        root = _mini_project(tmp_path, {"net/server.py": """\
            import queue
            import socket
            import time

            async def handler(conn):
                time.sleep(1)
                sock = socket.create_connection(("h", 1))
                data = conn.recv(4096)
                backlog = queue.Queue()
                return data, backlog
        """})
        findings = _lint(root, only={"R007"})
        assert all(f.rule == "R007" for f in findings)
        lines = {f.line for f in findings}
        assert {6, 7, 8, 9} <= lines
        assert any("asyncio.sleep" in f.message for f in findings)
        assert any("asyncio.Queue" in f.message for f in findings)

    def test_r007_flags_from_import_aliases(self, tmp_path):
        root = _mini_project(tmp_path, {"net/worker.py": """\
            from time import sleep as nap
            from queue import SimpleQueue

            async def tick():
                nap(0.1)
                return SimpleQueue()
        """})
        findings = _lint(root, only={"R007"})
        assert {f.line for f in findings} == {5, 6}

    def test_r007_passes_sync_helpers_and_async_idioms(self, tmp_path):
        root = _mini_project(tmp_path, {"net/client.py": """\
            import asyncio
            import socket
            import time

            def blocking_client(host, port):
                # Synchronous scope: blocking calls are the point.
                sock = socket.create_connection((host, port))
                time.sleep(0.1)
                return sock.recv(4096)

            async def server_loop(reader):
                await asyncio.sleep(0.1)
                backlog = asyncio.Queue()
                data = await reader.read(4096)

                def sync_helper():
                    # Nested sync scope inside the coroutine.
                    time.sleep(0.1)
                return data, backlog, sync_helper
        """})
        assert _lint(root, only={"R007"}) == []

    def test_r007_ignores_files_outside_async_paths(self, tmp_path):
        root = _mini_project(tmp_path, {"core/loop.py": """\
            import time

            async def helper():
                time.sleep(1)
        """})
        assert _lint(root, only={"R007"}) == []

    def test_r007_suppression_works(self, tmp_path):
        root = _mini_project(tmp_path, {"net/server.py": """\
            import time

            async def handler():
                time.sleep(1)  # repro-lint: disable=R007 -- startup only
        """})
        assert _lint(root, only={"R007"}) == []

    def test_r008_flags_silent_broad_handlers(self, tmp_path):
        root = _mini_project(tmp_path, {"net/server.py": """\
            def serve(conn):
                try:
                    conn.step()
                except Exception:
                    pass

            def pump(conn):
                try:
                    conn.drain()
                except:
                    return None

            def multi(conn):
                try:
                    conn.go()
                except (ValueError, Exception):
                    conn.reset()
        """})
        findings = _lint(root, only={"R008"})
        assert all(f.rule == "R008" for f in findings)
        assert {f.line for f in findings} == {4, 10, 16}
        assert any("bare except:" in f.message for f in findings)
        assert all("re-raises" in f.message for f in findings)

    def test_r008_passes_reraise_and_recording(self, tmp_path):
        root = _mini_project(tmp_path, {"engine/pool.py": """\
            import traceback

            class Pool:
                def narrow(self):
                    try:
                        self.step()
                    except OSError:
                        pass               # narrow catch: deliberate

                def reraises(self):
                    try:
                        self.step()
                    except Exception:
                        self.teardown()
                        raise

                def records_attr(self):
                    try:
                        self.step()
                    except Exception as exc:
                        self._fatal = str(exc)

                def counts_stat(self):
                    try:
                        self.step()
                    except Exception:
                        self.stats.errors += 1

                def reports(self):
                    try:
                        self.step()
                    except Exception:
                        traceback.format_exc()

                def __del__(self):
                    try:
                        self.close()
                    except Exception:
                        pass               # finalizer: exempt
        """})
        assert _lint(root, only={"R008"}) == []

    def test_r008_ignores_files_outside_exception_paths(self, tmp_path):
        root = _mini_project(tmp_path, {"core/quiet.py": """\
            def swallow(fn):
                try:
                    fn()
                except Exception:
                    pass
        """})
        assert _lint(root, only={"R008"}) == []

    def test_r008_suppression_works_and_stale_ones_surface(self, tmp_path):
        root = _mini_project(tmp_path, {"service/teardown.py": """\
            def close(thing):
                try:
                    thing.close()
                except Exception:  # repro-lint: disable=R008 -- idempotent teardown
                    pass
        """})
        assert _lint(root, only={"R008"}) == []
        root2 = _mini_project(tmp_path / "two", {"service/clean.py": """\
            def close(thing):  # repro-lint: disable=R008 -- nothing here
                thing.close()
        """})
        findings = _lint(root2, only={"R008"})
        assert [f.rule for f in findings] == ["R000"]

    def test_r005_missing_baseline_and_roundtrip(self, tmp_path):
        root = _mini_project(tmp_path, {
            "sketch/leaf.py": """\
                import numpy as np

                class Leaf:
                    def _params(self):
                        return dict(universe=self.universe, seed=self.seed)

                    def _state_arrays(self):
                        return [self.table]
            """,
            "engine/registry.py": "",
            "engine/checkpoint.py": "FORMAT_VERSION = 1\n",
        }, ini_extra="baseline = baseline.json")
        findings = _lint(root, only={"R005"})
        assert [f.rule for f in findings] == ["R005"]
        assert "baseline missing" in findings[0].message
        # refresh, then the same tree is clean
        write_baseline(LintContext(root, LintConfig.load(root)),
                       allow_dirty=True)
        assert _lint(root, only={"R005"}) == []
        # reshape the payload without a bump: flagged at the class
        leaf = root / "pkg" / "sketch" / "leaf.py"
        leaf.write_text(leaf.read_text().replace("seed=self.seed",
                                                 "salt=self.salt"))
        findings = _lint(root, only={"R005"})
        assert len(findings) == 1
        assert findings[0].rule == "R005"
        assert "without a FORMAT_VERSION bump" in findings[0].message
        # bump the version: now the *baseline* is stale, one finding
        (root / "pkg" / "engine" / "checkpoint.py").write_text(
            "FORMAT_VERSION = 2\n")
        findings = _lint(root, only={"R005"})
        assert len(findings) == 1
        assert "baseline records" in findings[0].message


class TestSuppressions:
    def test_inline_suppression_silences_and_is_counted_used(self, tmp_path):
        root = _mini_project(tmp_path, {"core/state.py": """\
            import time

            def t():
                return time.perf_counter()  # repro-lint: disable=R001 -- metrics only
        """})
        assert _lint(root, only={"R001"}) == []

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        root = _mini_project(tmp_path, {"core/state.py": """\
            import time

            def t():
                # repro-lint: disable=R001 -- metrics only
                return time.perf_counter()
        """})
        assert _lint(root, only={"R001"}) == []

    def test_unused_suppression_is_reported_as_r000(self, tmp_path):
        root = _mini_project(tmp_path, {"core/state.py": """\
            def clean():
                return 7  # repro-lint: disable=R001 -- stale excuse
        """})
        findings = _lint(root, only={"R001"})
        assert [f.rule for f in findings] == ["R000"]
        assert "unused suppression" in findings[0].message

    def test_file_wide_suppression(self, tmp_path):
        root = _mini_project(tmp_path, {"core/state.py": """\
            # repro-lint: disable-file=R001 -- legacy module, tracked
            import time

            def a():
                return time.perf_counter()

            def b():
                return time.monotonic()
        """})
        assert _lint(root, only={"R001"}) == []


class TestReporting:
    def test_json_document_shape(self, tmp_path, capsys):
        root = _mini_project(tmp_path, {"core/state.py": """\
            import time

            def t():
                return time.perf_counter()
        """})
        code = cli_main(["lint", "--root", str(root), "--rules", "R001",
                         "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro-lint"
        assert doc["schema"] == analysis.JSON_SCHEMA
        assert doc["clean"] is False
        assert doc["counts"] == {"R001": 1}
        (finding,) = doc["findings"]
        assert set(finding) == {"rule", "path", "line", "message"}
        assert finding["rule"] == "R001"
        assert finding["path"].endswith("core/state.py")
        assert finding["line"] == 4
        assert set(doc["rules"]) == {f"R00{i}" for i in range(1, 9)}

    def test_text_output_and_exit_codes(self, tmp_path, capsys):
        root = _mini_project(tmp_path, {"core/ok.py": "X = 1\n"})
        assert cli_main(["lint", "--root", str(root),
                         "--rules", "R001"]) == 0
        assert "repro lint: clean" in capsys.readouterr().out
        assert cli_main(["lint", "--root", str(root),
                         "--rules", "R42X"]) == 2
        assert "unknown rule ids" in capsys.readouterr().err

    def test_missing_package_is_a_usage_error(self, tmp_path):
        with pytest.raises(LintError):
            run_lint(tmp_path)
        assert cli_main(["lint", "--root", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# kill tests: the real tree, with each guarded bug reintroduced


def _copy_repo(tmp_path: Path) -> Path:
    """The live src/ tree + kernel suite, inspection pass disabled."""
    root = tmp_path / "repo"
    root.mkdir()
    shutil.copytree(REPO_ROOT / "src", root / "src")
    (root / "tests").mkdir()
    shutil.copy(REPO_ROOT / "tests" / "test_kernels.py",
                root / "tests" / "test_kernels.py")
    ini = (REPO_ROOT / "pytest.ini").read_text()
    (root / "pytest.ini").write_text(
        ini.replace("inspect = true", "inspect = false"))
    return root


def _single_finding(root: Path, rule: str):
    findings = [f for f in run_lint(root, config=LintConfig.load(root))
                if f.rule == rule]
    assert len(findings) == 1, findings
    return findings[0]


class TestKillMutations:
    def test_copied_tree_is_clean(self, tmp_path):
        root = _copy_repo(tmp_path)
        assert run_lint(root, config=LintConfig.load(root)) == []

    def test_deleting_an_oracle_trips_r003(self, tmp_path, capsys):
        root = _copy_repo(tmp_path)
        target = root / "src" / "repro" / "sketch" / "count_min.py"
        target.write_text(target.read_text().replace(
            "def _reference_update_many", "def _renamed_away"))
        finding = _single_finding(root, "R003")
        assert finding.path == "src/repro/sketch/count_min.py"
        assert "CountMin.update_many" in finding.message
        # the line is the real def update_many line in the mutated file
        tree = ast.parse(target.read_text())
        cls = next(n for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef) and n.name == "CountMin")
        def_line = next(n.lineno for n in cls.body
                        if isinstance(n, ast.FunctionDef)
                        and n.name == "update_many")
        assert finding.line == def_line
        assert cli_main(["lint", "--root", str(root)]) == 1
        assert "R003" in capsys.readouterr().out

    def test_unseeded_rng_in_core_trips_r001(self, tmp_path, capsys):
        root = _copy_repo(tmp_path)
        evil = root / "src" / "repro" / "core" / "zz_evil.py"
        evil.write_text("import numpy as np\n"
                        "_RNG = np.random.default_rng()\n")
        finding = _single_finding(root, "R001")
        assert finding.path == "src/repro/core/zz_evil.py"
        assert finding.line == 2
        assert "unseeded" in finding.message
        assert cli_main(["lint", "--root", str(root)]) == 1
        assert "zz_evil.py:2: R001" in capsys.readouterr().out

    def test_payload_reshape_without_bump_trips_r005(self, tmp_path,
                                                     capsys):
        root = _copy_repo(tmp_path)
        target = root / "src" / "repro" / "sketch" / "count_min.py"
        target.write_text(target.read_text().replace(
            "return dict(universe=self.universe, buckets=self.buckets",
            "return dict(universe=self.universe, width=self.buckets"))
        finding = _single_finding(root, "R005")
        assert finding.path == "src/repro/sketch/count_min.py"
        assert "CountMin" in finding.message
        assert "FORMAT_VERSION" in finding.message
        tree = ast.parse(target.read_text())
        cls_line = next(n.lineno for n in ast.walk(tree)
                        if isinstance(n, ast.ClassDef)
                        and n.name == "CountMin")
        assert finding.line == cls_line
        assert cli_main(["lint", "--root", str(root)]) == 1
        assert "R005" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# baseline refresh discipline


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestBaselineRefresh:
    def _git(self, root, *args):
        return subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t",
             *args], cwd=root, capture_output=True, text=True, check=True)

    def test_refuses_dirty_tree_then_writes_clean(self, tmp_path):
        root = _copy_repo(tmp_path)
        self._git(root, "init", "-q")
        self._git(root, "add", "-A")
        self._git(root, "commit", "-qm", "seed")
        (root / "scratch.txt").write_text("wip\n")
        ctx = LintContext(root, LintConfig.load(root))
        with pytest.raises(RuntimeError, match="dirty"):
            write_baseline(ctx)
        # same call succeeds once the tree is clean again
        (root / "scratch.txt").unlink()
        path = write_baseline(ctx)
        written = json.loads(path.read_text())
        assert written["format_version"] == 3
        assert written["wire_version"] == 1
        assert "WireFormat" in written["entries"]

    def test_allow_dirty_overrides(self, tmp_path):
        root = _copy_repo(tmp_path)
        self._git(root, "init", "-q")
        self._git(root, "add", "-A")
        self._git(root, "commit", "-qm", "seed")
        (root / "scratch.txt").write_text("wip\n")
        ctx = LintContext(root, LintConfig.load(root))
        assert write_baseline(ctx, allow_dirty=True).is_file()

    def test_cli_baseline_dirty_is_exit_2(self, tmp_path, capsys):
        root = _copy_repo(tmp_path)
        self._git(root, "init", "-q")
        self._git(root, "add", "-A")
        self._git(root, "commit", "-qm", "seed")
        (root / "scratch.txt").write_text("wip\n")
        assert cli_main(["lint", "--root", str(root), "--baseline"]) == 2
        assert "dirty" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the live tree


class TestLiveTree:
    def test_repo_is_lint_clean(self):
        """The shipped tree must pass its own gate (inspection pass
        included) — this is the test CI's lint lane duplicates."""
        findings = run_lint(REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_registry_audit_is_problem_free(self):
        from repro.engine import registry
        report = registry.audit()
        assert report["problems"] == []
        for name, row in report["types"].items():
            assert row["problems"] == [], (name, row["problems"])
        # every registered type serves at least one query op
        assert all(row["queries"] for row in report["types"].values())

    def test_unsupported_query_for_unregistered_type(self):
        from repro.engine import UnsupportedQuery, query_capability

        class NotRegistered:
            pass

        with pytest.raises(UnsupportedQuery) as err:
            query_capability(NotRegistered, "point")
        assert err.value.type_name == "NotRegistered"
        assert err.value.op == "point"
        assert err.value.registered is False
        assert err.value.supported == ()
