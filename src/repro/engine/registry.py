"""Engine registrations: every checkpointable structure in one place.

Leaves are the eight ``@register``-ed :class:`LinearSketch` subclasses
(the :mod:`repro.sketch.serialize` registry is reused verbatim);
composites — the samplers and the ``apps/`` wrappers — declare their
constructor parameters and component children so the generic walk in
:mod:`repro.engine.checkpoint` can snapshot, restore, clone and merge
them.

Exactness bookkeeping (see :class:`~repro.engine.checkpoint.EngineSpec`):
structures whose counters stay integral under integer turnstile
updates — everything except the p-stable sketch and the Lp sampler
family that scales updates by real factors — are marked ``exact``:
their sharded-and-merged state is byte-identical to the single-stream
state because integer and GF(p) addition are associative.  Float-state
structures merge correctly but reassociation can move the last ulp.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import inspect
import textwrap
from typing import Any, Callable

from ..apps.duplicates import DuplicateFinder, ShortStreamDuplicateFinder
from ..apps.heavy_hitters import (CountMedianHeavyHitters,
                                  CountSketchHeavyHitters)
from ..apps.moments import FrequencyMomentEstimator
from ..core.l0_sampler import L0Sampler
from ..core.lp_sampler import L1Sampler, LpSampler, LpSamplerRound
from ..core.params import DEFAULT_CONFIG, LpSamplerConfig
from ..recovery import (IBLTSparseRecovery, OneSparseDetector,
                        SyndromeSparseRecovery)
from ..sketch.ams import AMSSketch
from ..sketch.count_min import CountMin
from ..sketch.count_sketch import CountSketch
from ..sketch.l0_estimator import L0Estimator
from ..sketch.serialize import _REGISTRY as _LINEAR_REGISTRY
from ..sketch.stable import StableSketch
from .checkpoint import EngineSpec, register_linear_sketch, register_spec

import numpy as np

#: Linear-sketch leaves whose state arrays hold real (non-integral)
#: values: the p-stable projection accumulates irrational coefficients.
_FLOAT_STATE_LEAVES = {"StableSketch"}


def _register_leaves() -> None:
    for name, cls in _LINEAR_REGISTRY.items():
        register_linear_sketch(cls, exact=name not in _FLOAT_STATE_LEAVES)


def _config_dict(config: LpSamplerConfig) -> dict:
    return dataclasses.asdict(config)


def _config_from(params: dict) -> LpSamplerConfig:
    raw = params.get("config")
    if raw is None:
        return DEFAULT_CONFIG
    return LpSamplerConfig(**raw)


_MASK64 = (1 << 64) - 1


def _pcg64_state_array(generator: np.random.Generator) -> np.ndarray:
    """Pack a PCG64 generator's full state into a uint64[6] array.

    The L0 sampler's final uniform choice consumes this generator, so a
    checkpoint must carry it for post-restore ``sample()`` calls to
    continue (not replay) the uninterrupted sequence.
    """
    state = generator.bit_generator.state
    inner = state["state"]
    return np.array([inner["state"] >> 64, inner["state"] & _MASK64,
                     inner["inc"] >> 64, inner["inc"] & _MASK64,
                     state["has_uint32"], state["uinteger"]],
                    dtype=np.uint64)


def _load_pcg64_state(packed: np.ndarray) -> np.random.Generator:
    """A new generator in the state :func:`_pcg64_state_array` packed."""
    words = [int(w) for w in np.asarray(packed, dtype=np.uint64)]
    generator = np.random.Generator(np.random.PCG64(0))   # state set next
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (words[0] << 64) | words[1],
                  "inc": (words[2] << 64) | words[3]},
        "has_uint32": words[4],
        "uinteger": words[5],
    }
    return generator


def _set_l0_choice_rng(obj, arrays) -> None:
    obj._choice_rng = _load_pcg64_state(arrays[0])


def _register_samplers() -> None:
    register_spec(EngineSpec(
        cls=L0Sampler,
        params=lambda obj: obj._params(),
        build=lambda params: L0Sampler(**params),
        children=lambda obj: list(obj._recoveries),
        arrays=lambda obj: [_pcg64_state_array(obj._choice_rng)],
        set_arrays=_set_l0_choice_rng,
        merge=lambda obj, other: obj.merge(other),
        exact=True,
    ))

    register_spec(EngineSpec(
        cls=LpSamplerRound,
        params=lambda obj: dict(universe=obj.universe, p=obj.p, eps=obj.eps,
                                seed=obj.seed,
                                config=_config_dict(obj.config)),
        build=lambda params: LpSamplerRound(
            params["universe"], params["p"], params["eps"],
            seed=params["seed"], config=_config_from(params)),
        children=lambda obj: [obj._count_sketch, obj._norm_sketch,
                              obj._tail_sketch],
        exact=False,  # feeds real-scaled values into its sketches
    ))

    register_spec(EngineSpec(
        cls=LpSampler,
        params=lambda obj: dict(universe=obj.universe, p=obj.p, eps=obj.eps,
                                delta=obj.delta, seed=obj.seed,
                                rounds=obj.rounds,
                                config=_config_dict(obj.config)),
        build=lambda params: LpSampler(
            params["universe"], params["p"], params["eps"],
            delta=params["delta"], seed=params["seed"],
            rounds=params["rounds"], config=_config_from(params)),
        children=lambda obj: list(obj._repeated.instances),
        exact=False,
    ))

    register_spec(EngineSpec(
        cls=L1Sampler,
        params=lambda obj: dict(universe=obj.universe, eps=obj.eps,
                                delta=obj.delta, seed=obj.seed,
                                rounds=obj.rounds,
                                config=_config_dict(obj.config)),
        build=lambda params: L1Sampler(
            params["universe"], eps=params["eps"], delta=params["delta"],
            seed=params["seed"], rounds=params["rounds"],
            config=_config_from(params)),
        children=lambda obj: list(obj._repeated.instances),
        exact=False,
    ))


def _register_apps() -> None:
    # The duplicate finders consume *item* streams and apply the -1
    # baseline once at construction, so K independently-built shards do
    # not partition a turnstile stream: checkpointable, not shardable.
    register_spec(EngineSpec(
        cls=DuplicateFinder,
        params=lambda obj: dict(universe=obj.universe, delta=obj.delta,
                                seed=obj.seed,
                                sampler_rounds=obj.sampler_rounds),
        build=lambda params: DuplicateFinder(**params,
                                             include_baseline=False),
        children=lambda obj: list(obj._samplers),
        exact=False,
        shardable=False,
    ))

    register_spec(EngineSpec(
        cls=ShortStreamDuplicateFinder,
        params=lambda obj: dict(universe=obj.universe, s=obj.s,
                                delta=obj.delta, seed=obj.seed,
                                sampler_rounds=obj.sampler_rounds),
        build=lambda params: ShortStreamDuplicateFinder(
            **params, include_baseline=False),
        children=lambda obj: [obj._recovery] + list(obj._samplers),
        exact=False,
        shardable=False,
    ))

    register_spec(EngineSpec(
        cls=CountSketchHeavyHitters,
        params=lambda obj: dict(universe=obj.universe, p=obj.p, phi=obj.phi,
                                seed=obj.seed, m_const=obj.m_const,
                                threshold_factor=obj.threshold_factor),
        build=lambda params: CountSketchHeavyHitters(**params),
        children=lambda obj: [obj._sketch, obj._norm],
        exact=False,  # carries a p-stable norm sketch
    ))

    register_spec(EngineSpec(
        cls=CountMedianHeavyHitters,
        params=lambda obj: dict(universe=obj.universe, phi=obj.phi,
                                seed=obj.seed,
                                buckets_const=obj.buckets_const,
                                strict=obj.strict,
                                threshold_factor=obj.threshold_factor),
        build=lambda params: CountMedianHeavyHitters(**params),
        children=lambda obj: [obj._sketch],
        # own state: the running update sum (= ||x||_1 strict turnstile);
        # merging shards adds the partial sums, exactly.
        arrays=lambda obj: [np.array([obj._sum], dtype=np.int64)],
        set_arrays=_set_count_median_sum,
        exact=True,
    ))

    register_spec(EngineSpec(
        cls=FrequencyMomentEstimator,
        params=lambda obj: dict(universe=obj.universe, q=obj.q,
                                samples=obj.samples, eps=obj.eps,
                                seed=obj.seed),
        build=lambda params: FrequencyMomentEstimator(**params),
        children=lambda obj: [obj._norm] + list(obj._samplers),
        exact=False,
    ))


def _set_count_median_sum(obj, arrays) -> None:
    obj._sum = np.int64(np.asarray(arrays[0], dtype=np.int64)[0])


# -- query capabilities -------------------------------------------------------
#
# The serving layer (:mod:`repro.service`) answers a small query
# algebra against immutable snapshots; this table says, per registered
# type, which operations it supports and how to run them.  Dispatching
# through the table (rather than duck-typing method names) makes
# capability gaps *loud*: asking a structure for an operation it does
# not support raises :class:`UnsupportedQuery` naming both sides.
# Every op only reads its target, so snapshots stay byte-frozen without
# copies; the ``cacheable`` flag says whether a result is a pure
# function of ``(epoch, op, args)``.


class UnsupportedQuery(TypeError):
    """A structure does not support the requested query op.

    Carries ``type_name`` and ``op`` so services can report the gap
    precisely instead of burying it in an AttributeError, plus
    ``registered`` distinguishing "known type, missing op" from "type
    has no capability row at all" — the latter usually means a new
    structure was checkpoint-registered without query wiring.
    """

    def __init__(self, type_name: str, op: str, supported=(),
                 registered: bool = True):
        self.type_name = str(type_name)
        self.op = str(op)
        self.supported = tuple(sorted(supported))
        self.registered = bool(registered)
        if not self.registered:
            hint = ("; the type has no entry in the query capability "
                    "table at all (register_query it)")
        elif self.supported:
            hint = f"; it supports: {', '.join(self.supported)}"
        else:
            hint = "; it supports no query ops"
        super().__init__(
            f"{self.type_name} does not support the query operation "
            f"{self.op!r}{hint}")


@dataclasses.dataclass(frozen=True)
class QueryCapability:
    """One (structure type, operation) entry of the capability table.

    Attributes
    ----------
    op:
        The algebra operation name (``"heavy_hitters"``, ``"norm"``...).
    run:
        ``(structure, args: dict) -> result``.  Validates its own
        arguments and raises ``ValueError``/``TypeError`` on bad ones.
        Never writes to the structure.
    doc:
        One-line signature summary for tables and CLIs.
    cacheable:
        True when ``(epoch, op, canonical args)`` determines the result
        and the args are hashable.  ``inner`` takes another live
        snapshot as an argument, so it is not.
    """

    op: str
    run: Callable[[Any, dict], Any]
    doc: str = ""
    cacheable: bool = True


#: class name -> op name -> capability.
_QUERY_CAPS: dict[str, dict[str, QueryCapability]] = {}

#: class name -> the class object itself, for audit-time inspection.
_QUERY_CLASSES: dict[str, type] = {}


def register_query(cls, capability: QueryCapability) -> QueryCapability:
    """Register (or replace) one query capability for a class."""
    _QUERY_CAPS.setdefault(cls.__name__, {})[capability.op] = capability
    _QUERY_CLASSES[cls.__name__] = cls
    return capability


def query_capabilities(obj_or_cls) -> dict[str, QueryCapability]:
    """The capability table row for a type (may be empty)."""
    cls = obj_or_cls if isinstance(obj_or_cls, type) else type(obj_or_cls)
    return dict(_QUERY_CAPS.get(cls.__name__, {}))


def query_capability(obj_or_cls, op: str) -> QueryCapability:
    """The capability for one op; raises :class:`UnsupportedQuery`.

    The exception is the same typed error whether the type has a
    capability row missing this op or no row at all (unregistered
    types set ``registered=False``) — callers never see a bare
    ``KeyError``/``AttributeError`` for either gap.
    """
    cls = obj_or_cls if isinstance(obj_or_cls, type) else type(obj_or_cls)
    row = _QUERY_CAPS.get(cls.__name__)
    if row is None:
        raise UnsupportedQuery(cls.__name__, op, registered=False)
    capability = row.get(op)
    if capability is None:
        raise UnsupportedQuery(cls.__name__, op, supported=row)
    return capability


def query_algebra() -> dict[str, str]:
    """Every known op name -> its one-line doc (union over all types)."""
    algebra: dict[str, str] = {}
    for row in _QUERY_CAPS.values():
        for op, capability in row.items():
            algebra.setdefault(op, capability.doc)
    return dict(sorted(algebra.items()))


# -- completeness audit -------------------------------------------------------


def _instance_attrs(cls: type) -> set[str]:
    """``self.X`` attribute names assigned anywhere in the class's own
    source, over the whole MRO (best effort; unreadable sources skip)."""
    attrs: set[str] = set()
    for klass in cls.__mro__:
        try:
            source = textwrap.dedent(inspect.getsource(klass))
            tree = ast.parse(source)
        except (OSError, TypeError, SyntaxError):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    attrs.add(target.attr)
    return attrs


def _unresolved_names(cls: type, run: Callable) -> list[str]:
    """Names a capability lambda references that resolve nowhere.

    ``co_names`` holds both the globals the lambda loads and every
    attribute name it accesses; each must resolve against the target
    class (methods, class attributes, ``self.X`` assignments), the
    lambda's own globals, or builtins.  Anything left is a query that
    would die with AttributeError/NameError at serving time.
    """
    code = getattr(run, "__code__", None)
    if code is None:          # not a plain function: nothing to check
        return []
    known = set(dir(cls)) | _instance_attrs(cls) | set(dir(builtins))
    known |= set(getattr(run, "__globals__", {}))
    return sorted(set(code.co_names) - known)


def audit() -> dict:
    """Cross-check the checkpoint and query registries; JSON-able.

    This is the *runtime* completeness report — the same one the R002
    lint rule runs in a subprocess, so CI and a live debugging session
    gate on one source of truth.  Returns::

        {"types": {name: {"exact": ..., "shardable": ...,
                          "queries": [...], "problems": [...]}},
         "problems": [...]}           # registry-wide problems

    An empty ``problems`` everywhere means: every checkpoint-registered
    type pairs its state callbacks, every query-capable type is
    checkpoint-registered, and every capability lambda only references
    names its class (or scope) actually defines.
    """
    from .checkpoint import (_no_arrays, _no_set_arrays, registered_types)

    report: dict = {"types": {}, "problems": []}
    specs = registered_types()
    for name, spec in sorted(specs.items()):
        problems: list[str] = []
        if spec.arrays is not _no_arrays \
                and spec.set_arrays is _no_set_arrays:
            problems.append(
                "declares own state arrays but no set_arrays; restore "
                "and clone would silently drop that state")
        if spec.set_arrays is not _no_set_arrays \
                and spec.arrays is _no_arrays:
            problems.append(
                "declares set_arrays but no arrays; restore would "
                "never feed it state")
        report["types"][name] = {
            "exact": spec.exact,
            "shardable": spec.shardable,
            "queries": sorted(_QUERY_CAPS.get(name, {})),
            "problems": problems,
        }

    for name, row in sorted(_QUERY_CAPS.items()):
        if name not in specs:
            report["problems"].append(
                f"{name} has query capabilities but is not "
                f"checkpoint-registered; snapshots could never serve it")
        cls = _QUERY_CLASSES.get(name)
        if cls is None:
            continue
        type_row = report["types"].get(name)
        for op, capability in sorted(row.items()):
            for missing in _unresolved_names(cls, capability.run):
                problem = (f"capability {op!r} references {missing!r}, "
                           f"which {name} does not define")
                if type_row is not None:
                    type_row["problems"].append(problem)
                else:
                    report["problems"].append(f"{name}: {problem}")
    return report


def _no_args(op: str, args: dict) -> None:
    if args:
        raise TypeError(
            f"{op}() takes no arguments (got {sorted(args)})")


def _only_args(op: str, args: dict, allowed: tuple) -> None:
    extra = set(args) - set(allowed)
    if extra:
        raise TypeError(
            f"{op}() got unexpected arguments {sorted(extra)} "
            f"(accepts {sorted(allowed)})")


def _index_arg(obj, args: dict) -> int:
    _only_args("point", args, ("index",))
    if "index" not in args:
        raise TypeError("point() requires an 'index' argument")
    index = int(args["index"])
    if not 0 <= index < obj.universe:
        raise ValueError(
            f"point() index {index} outside the universe "
            f"[0, {obj.universe})")
    return index


def _norm_p(obj, args: dict, expected: float) -> None:
    _only_args("norm", args, ("p",))
    if "p" in args and float(args["p"]) != float(expected):
        raise ValueError(
            f"{type(obj).__name__} estimates the p={expected:g} norm, "
            f"not p={float(args['p']):g}; build a structure for that p")


def _other_structure(op: str, args: dict):
    _only_args(op, args, ("other",))
    if "other" not in args:
        raise TypeError(f"{op}() requires an 'other' argument "
                        f"(a snapshot or structure sharing the map)")
    other = args["other"]
    # Accept either a bare structure or anything snapshot-shaped that
    # exposes one (duck-typed so service and engine stay decoupled).
    return getattr(other, "structure", other)


def _count_arg(op: str, args: dict, default: int | None = 1):
    _only_args(op, args, ("count",))
    if "count" not in args and default is None:
        return None
    count = int(args.get("count", default))
    if count < 1:
        raise ValueError(f"{op}() count must be >= 1, not {count}")
    return count


def _sample_l0(obj, args: dict) -> tuple:
    """Draws as ``clone(obj)`` would, leaving ``obj`` itself unchanged."""
    count = _count_arg("sample_l0", args)
    rng = _load_pcg64_state(_pcg64_state_array(obj._choice_rng))
    return tuple(obj.sample(rng) for _ in range(count))


def _phi_args(args: dict) -> dict:
    _only_args("heavy_hitters", args, ("phi",))
    return ({"phi": float(args["phi"])} if "phi" in args else {})


def _register_queries() -> None:
    register_query(CountSketch, QueryCapability(
        "point", lambda obj, args: float(obj.estimate(_index_arg(obj, args))),
        doc="point(index): the x*_index estimate (Lemma 1 error)"))
    register_query(CountSketch, QueryCapability(
        "top", lambda obj, args: obj.best_sparse_approximation(
            sparsity=_count_arg("top", args, default=None)),
        doc="top(count=m): indices/values of the best count-sparse "
            "part"))
    register_query(CountSketch, QueryCapability(
        "inner", lambda obj, args: obj.inner_product(
            _other_structure("inner", args)),
        doc="inner(other): <x, y> estimate from a shared map",
        cacheable=False))

    register_query(CountMin, QueryCapability(
        "point", lambda obj, args: float(
            obj.estimate_median(_index_arg(obj, args))),
        doc="point(index): count-median point estimate"))

    register_query(AMSSketch, QueryCapability(
        "norm", lambda obj, args: (_norm_p(obj, args, 2.0), obj.l2())[1],
        doc="norm(p=2): tug-of-war ||x||_2 estimate"))
    register_query(AMSSketch, QueryCapability(
        "inner", lambda obj, args: obj.inner_product(
            _other_structure("inner", args)),
        doc="inner(other): <x, y> estimate from a shared map",
        cacheable=False))

    register_query(StableSketch, QueryCapability(
        "norm", lambda obj, args: (_norm_p(obj, args, obj.p),
                                   float(obj.norm_estimate()))[1],
        doc="norm(p): Lemma 2 ||x||_p estimate (p fixed at build time)"))

    register_query(L0Estimator, QueryCapability(
        "norm", lambda obj, args: (_norm_p(obj, args, 0.0),
                                   float(obj.estimate()))[1],
        doc="norm(p=0): support-size (L0) estimate"))

    for recovery_cls in (SyndromeSparseRecovery, IBLTSparseRecovery):
        register_query(recovery_cls, QueryCapability(
            "recover", lambda obj, args: (_no_args("recover", args),
                                          obj.recover())[1],
            doc="recover(): the exact vector if s-sparse, else DENSE"))
    register_query(OneSparseDetector, QueryCapability(
        "recover", lambda obj, args: (_no_args("recover", args),
                                      obj.decide())[1],
        doc="recover(): 1-sparse decision (index, value) or not"))

    register_query(L0Sampler, QueryCapability(
        "sample_l0", _sample_l0,
        doc="sample_l0(count=1): uniform support samples, zero "
            "relative error"))
    register_query(L0Sampler, QueryCapability(
        "support", lambda obj, args: (_no_args("support", args),
                                      obj.recover_full_support())[1],
        doc="support(): the exact support when sparse, else None"))

    for sampler_cls in (LpSamplerRound, LpSampler, L1Sampler):
        register_query(sampler_cls, QueryCapability(
            "sample_lp", lambda obj, args: (_no_args("sample_lp", args),
                                            obj.sample())[1],
            doc="sample_lp(): one Figure 1 precision sample "
                "(deterministic recovery)"))

    for hh_cls in (CountSketchHeavyHitters, CountMedianHeavyHitters):
        register_query(hh_cls, QueryCapability(
            "heavy_hitters",
            lambda obj, args: obj.heavy_hitters(**_phi_args(args)),
            doc="heavy_hitters(phi=built): the Section 4.4 valid set"))
    register_query(CountSketchHeavyHitters, QueryCapability(
        "norm", lambda obj, args: (_norm_p(obj, args, obj.p),
                                   obj.norm_estimate())[1],
        doc="norm(p): the ||x||_p estimate backing the threshold"))
    register_query(CountMedianHeavyHitters, QueryCapability(
        "norm", lambda obj, args: (_norm_p(obj, args, 1.0),
                                   obj.l1_mass())[1],
        doc="norm(p=1): exact L1 mass (strict turnstile model)"))

    register_query(FrequencyMomentEstimator, QueryCapability(
        "moment", lambda obj, args: (_no_args("moment", args),
                                     obj.estimate())[1],
        doc="moment(): the F_q frequency-moment estimate"))

    for dup_cls in (DuplicateFinder, ShortStreamDuplicateFinder):
        register_query(dup_cls, QueryCapability(
            "duplicates", lambda obj, args: (_no_args("duplicates", args),
                                             obj.duplicates())[1],
            doc="duplicates(): a duplicate item, NO-DUPLICATE or FAIL"))


_register_leaves()
_register_samplers()
_register_apps()
_register_queries()
