"""The public API surface: imports, __all__, docstring discipline."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = ["repro.core", "repro.apps", "repro.comm", "repro.sketch",
               "repro.recovery", "repro.hashing", "repro.streams",
               "repro.space", "repro.baselines", "repro.engine",
               "repro.service"]


class TestImports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} needs a module docstring"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, name):
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", []):
            assert hasattr(module, export), f"{name}.{export}"

    def test_engine_has_one_chunk_transport(self):
        """The shared-memory ring and the option that chose it are
        gone; pickle queues are the process backend's only transport."""
        engine = importlib.import_module("repro.engine")
        for name in ("SlotRing", "TRANSPORTS"):
            assert not hasattr(engine, name), name
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.shm")
        for func in (engine.ShardedPipeline.__init__,
                     engine.ShardedPipeline.restore,
                     engine.ShardedPipeline.reshard, engine.build_pool):
            assert "transport" not in inspect.signature(func).parameters

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestDocumentationDiscipline:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_every_public_class_and_function_documented(self, name):
        module = importlib.import_module(name)
        missing = []
        for export in getattr(module, "__all__", []):
            obj = getattr(module, export)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    missing.append(export)
        assert not missing, f"undocumented exports in {name}: {missing}"

    def test_public_methods_documented_on_samplers(self):
        from repro import DuplicateFinder, L0Sampler, LpSampler

        for cls in (LpSampler, L0Sampler, DuplicateFinder):
            for attr, member in vars(cls).items():
                if attr.startswith("_") or not callable(member):
                    continue
                assert inspect.getdoc(getattr(cls, attr)), \
                    f"{cls.__name__}.{attr} lacks a docstring"


class TestErrorContracts:
    """Misuse raises ValueError; FAIL is a value, not an exception."""

    def test_value_errors(self):
        from repro import CountSketchHeavyHitters, L0Sampler, LpSampler

        with pytest.raises(ValueError):
            LpSampler(100, p=2.0, eps=0.25)
        with pytest.raises(ValueError):
            LpSampler(100, p=1.0, eps=1.5)
        with pytest.raises(ValueError):
            L0Sampler(100, delta=0.0)
        with pytest.raises(ValueError):
            CountSketchHeavyHitters(100, p=3.0, phi=0.1)

    def test_fail_is_a_value(self):
        from repro import L0Sampler

        result = L0Sampler(64, seed=1).sample()
        assert result.failed and result.reason
