"""Universal checkpoint/restore for every structure in the library.

:mod:`repro.sketch.serialize` makes bare :class:`LinearSketch`
instances wire-serializable; this module generalizes the idea to the
*composite* structures — :class:`~repro.core.l0_sampler.L0Sampler`,
:class:`~repro.core.lp_sampler.LpSampler`, the recovery structures and
the ``apps/`` wrappers — so a whole pipeline can snapshot mid-stream
and resume deterministically.

The key observation is the same one the Section 4 protocols rely on:
every structure here is (a tree of) linear sketches whose *maps* are a
pure function of their constructor parameters, and whose *state* is a
flat list of counter arrays.  A checkpoint therefore stores

1. a versioned JSON header — class name + the constructor parameters
   that rebuild an empty twin sharing the same linear map, and
2. the leaf counter arrays, collected by a deterministic preorder walk
   of the component tree.

Restore rebuilds the empty twin from the header and loads the arrays
back in walk order.  Because reconstruction is deterministic,
``restore(checkpoint(x))`` continues the stream exactly where ``x``
left off.  Every twin comes from :func:`build_twin`, which runs the
constructor (re-deriving every hash function from the seed) once per
map and hands out deep copies of that prototype afterwards: the
hashing objects are immutable and return themselves from
``__deepcopy__``, so copies share the map and own their state.

The same component walk powers two more engine primitives:

* :func:`clone` — an independent deep copy (twin + copied state);
* :func:`merge_into` — shard reconciliation that validates the two
  structures share a map (class and parameters) and then delegates to
  each component's own ``merge`` (field-aware where the component says
  so), raising :class:`IncompatibleShards` with the exact mismatching
  fields otherwise.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..wire import KIND_STRUCTURE, WireError, decode_frame, encode_frame

#: Bump when the checkpoint payload changes; restore() rejects other
#: versions.  3 = repro.wire frames.
FORMAT_VERSION = 3


class IncompatibleShards(ValueError):
    """Two structures do not share a linear map and cannot be merged."""


class StaleCheckpoint(ValueError):
    """The blob was written by a different (older/newer) format version."""


# Named defaults for the EngineSpec callbacks.  Module-level (rather
# than inline lambdas) so completeness auditing — registry.audit() and
# the R002 lint rule behind it — can tell "spec left the default" from
# "spec supplied its own callback" by identity.


def _no_children(obj) -> list:
    return []


def _no_arrays(obj) -> list:
    return []


def _no_set_arrays(obj, arrays) -> None:
    return None


@dataclass(frozen=True)
class EngineSpec:
    """How the engine takes a structure apart and puts it back together.

    Attributes
    ----------
    cls:
        The registered class.
    params:
        ``obj -> dict`` of JSON-able constructor keyword arguments that
        rebuild an empty twin with the *same* linear map (hash seeds
        included).
    build:
        ``dict -> obj`` constructing that twin; defaults to
        ``cls(**params)``.
    children:
        ``obj -> list`` of component structures, themselves registered;
        walked recursively in order.
    arrays:
        ``obj -> list[np.ndarray]`` of the structure's *own* leaf state
        (excluding children's state).
    set_arrays:
        ``(obj, list[np.ndarray]) -> None`` writing own state back.
    merge:
        Optional ``(obj, other) -> None`` in-place merge.  ``None``
        means the generic recursion: merge children pairwise and add
        own arrays elementwise (correct for plain counters; structures
        with modular state supply their own, e.g. field addition).
    exact:
        True when the state arrays are integer/modular, so sharded
        ingestion followed by a merge is *byte-identical* to the
        single-instance run (integer and GF(p) addition are
        associative).  Float-state structures (p-stable projections,
        the scaled Lp pipeline) are mergeable but only up to the usual
        reassociation ulps; the property suite asserts exactness for
        exact types and a tight ``allclose`` otherwise.
    shardable:
        True when the structure exposes ``update_many`` and a shard
        merge reconstructs the single-stream semantics.  Item-stream
        wrappers that apply a baseline at construction (the duplicate
        finders) are checkpointable but **not** shardable: K shards
        would each apply the -1 baseline and the merged vector would be
        ``occurrences - K``.
    """

    cls: type
    params: Callable[[Any], dict]
    build: Callable[[dict], Any] | None = None
    children: Callable[[Any], list] = field(default=_no_children)
    arrays: Callable[[Any], list] = field(default=_no_arrays)
    set_arrays: Callable[[Any, list], None] = field(default=_no_set_arrays)
    merge: Callable[[Any, Any], None] | None = None
    exact: bool = True
    shardable: bool = True


#: Registry of engine-managed classes, keyed by class name.
_SPECS: dict[str, EngineSpec] = {}


def register_spec(spec: EngineSpec) -> EngineSpec:
    """Register (or replace) the engine spec for a class.

    Drops every memoized prototype, so a replaced spec never serves a
    twin its predecessor built."""
    _SPECS[spec.cls.__name__] = spec
    _prototype.cache_clear()
    return spec


def register_linear_sketch(cls, exact: bool = True,
                           shardable: bool = True) -> EngineSpec:
    """Register a :class:`LinearSketch` subclass as an engine leaf.

    Reuses the ``_params()`` / ``_state_arrays()`` / ``_replace_state``
    contract of :mod:`repro.sketch.serialize` and the class's own
    ``merge`` (which is field-aware where it needs to be).
    """
    return register_spec(EngineSpec(
        cls=cls,
        params=lambda obj: obj._params(),
        build=lambda params: cls(**params),
        arrays=lambda obj: list(obj._state_arrays()),
        set_arrays=_replace_leaf_state,
        merge=lambda obj, other: obj.merge(other),
        exact=exact,
        shardable=shardable,
    ))


def _replace_leaf_state(obj, arrays) -> None:
    expected = obj._state_arrays()
    obj._replace_state([arr.astype(ref.dtype)
                        for arr, ref in zip(arrays, expected)])


def spec_for(obj_or_cls) -> EngineSpec:
    """The spec registered for an object's class; KeyError-free lookup."""
    cls = obj_or_cls if isinstance(obj_or_cls, type) else type(obj_or_cls)
    spec = _SPECS.get(cls.__name__)
    if spec is None:
        raise TypeError(
            f"{cls.__name__} is not registered with the engine; known "
            f"types: {sorted(_SPECS)}")
    return spec


def registered_types() -> dict[str, EngineSpec]:
    """A snapshot of the registry (name -> spec)."""
    return dict(_SPECS)


def is_registered(obj_or_cls) -> bool:
    """Whether the engine knows how to checkpoint/merge this type."""
    cls = obj_or_cls if isinstance(obj_or_cls, type) else type(obj_or_cls)
    return cls.__name__ in _SPECS


def is_exact(obj_or_cls) -> bool:
    """Whether sharded merges of this type are byte-identical.

    The flag on the spec is authoritative — set conservatively at
    registration time, covering the structure's own arrays and every
    component it constructs.
    """
    return spec_for(obj_or_cls).exact


def is_shardable(obj_or_cls) -> bool:
    """Whether a :class:`~repro.engine.pipeline.ShardedPipeline` may
    partition a turnstile stream across instances of this type."""
    return spec_for(obj_or_cls).shardable


# -- the component walk ------------------------------------------------------


def state_arrays(obj) -> list[np.ndarray]:
    """All leaf state arrays, flattened by deterministic preorder walk."""
    spec = spec_for(obj)
    out = list(spec.arrays(obj))
    for child in spec.children(obj):
        out.extend(state_arrays(child))
    return out


def _load_state(obj, arrays: list[np.ndarray], cursor: int = 0) -> int:
    spec = spec_for(obj)
    own = spec.arrays(obj)
    take = arrays[cursor:cursor + len(own)]
    if len(take) != len(own):
        raise ValueError("checkpoint holds too few state arrays")
    for loaded, ref in zip(take, own):
        if np.asarray(loaded).shape != np.asarray(ref).shape:
            raise ValueError(
                f"state array shape mismatch for {type(obj).__name__}: "
                f"{np.asarray(loaded).shape} != {np.asarray(ref).shape}")
    spec.set_arrays(obj, take)
    cursor += len(own)
    for child in spec.children(obj):
        cursor = _load_state(child, arrays, cursor)
    return cursor


def params_of(obj) -> dict:
    """The JSON-able constructor parameters the engine records."""
    return spec_for(obj).params(obj)


#: How many ``(class, params)`` prototypes :func:`build_twin` keeps;
#: the least recently used one is dropped first.  Each holds one empty
#: structure, so the bound caps the memo's memory whatever maps a peer
#: names in the checkpoints it sends.
_PROTOTYPE_SLOTS = 64


def build_twin(class_name: str, params: dict):
    """An empty structure of the named class sharing the linear map;
    ``ValueError`` when the class is unknown or its constructor
    rejects ``params``.

    The constructor runs once per ``(class, canonical-JSON params)``:
    its result is kept as a prototype (at most :data:`_PROTOTYPE_SLOTS`
    of them, least recently used evicted) and every call returns
    ``copy.deepcopy(prototype)``.  The hashing objects are immutable
    and return themselves from ``__deepcopy__``, so the twin shares
    the prototype's hash functions and owns copies of everything else:
    the state arrays and mutable attributes such as the L0 sampler's
    choice generator.  A constructor that raises caches nothing."""
    spec = _SPECS.get(class_name) if isinstance(class_name, str) else None
    if spec is None:
        raise ValueError(f"unknown engine class {class_name!r}")
    if not isinstance(params, dict):
        raise ValueError(f"{class_name} parameters must be a JSON "
                         f"object, not {params!r}")
    try:
        key = json.dumps(params, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{class_name} parameters are not JSON: "
                         f"{exc}") from exc
    return copy.deepcopy(_prototype(class_name, key))


@functools.lru_cache(maxsize=_PROTOTYPE_SLOTS)
def _prototype(class_name: str, params_json: str):
    """The constructor-built twin :func:`build_twin` copies (never
    handed out itself, so it stays empty)."""
    spec = _SPECS[class_name]
    params = json.loads(params_json)
    try:
        if spec.build is None:
            return spec.cls(**params)
        return spec.build(params)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{class_name} rejects parameters {params!r}: "
                         f"{exc}") from exc


def clone(obj):
    """An independent deep copy: a :func:`build_twin` twin (a copy of
    the map's memoized prototype, its immutable hash objects shared)
    with ``obj``'s state copied in."""
    twin = build_twin(type(obj).__name__, params_of(obj))
    _load_state(twin, [np.array(a, copy=True) for a in state_arrays(obj)])
    return twin


def fresh_twin(obj):
    """An *empty* structure sharing ``obj``'s linear map.

    The twin is exactly what the registered factory would have built:
    same class, same constructor parameters (hash seeds included), but
    state sketching the zero vector.  It is a :func:`build_twin` copy
    of the map's memoized prototype, so it derives no hash function
    once that prototype exists.  Resharding seats folded shard state
    next to fresh twins — by linearity the twins contribute nothing to
    a merge until they ingest their own updates.
    """
    return build_twin(type(obj).__name__, params_of(obj))


# -- checkpoint / restore ----------------------------------------------------


def checkpoint(obj, compress: str = "none") -> bytes:
    """Snapshot a registered structure to a ``KIND_STRUCTURE`` wire
    frame (``compress="zlib"`` deflates every array section)."""
    header = {
        "format": FORMAT_VERSION,
        "class": type(obj).__name__,
        "params": params_of(obj),
    }
    arrays = [np.asarray(arr) for arr in state_arrays(obj)]
    return encode_frame(KIND_STRUCTURE, header, arrays, compress=compress)


def restore(data: bytes):
    """Rebuild the structure a :func:`checkpoint` blob describes.

    Raises :class:`StaleCheckpoint` when the blob was written by a
    different format version, and ``ValueError`` for garbage input,
    unknown classes, malformed headers or state/shape mismatches.
    """
    try:
        frame = decode_frame(data, expect_kind=KIND_STRUCTURE)
    except WireError as exc:
        raise ValueError(f"not an engine checkpoint: {exc}") from exc
    header = frame.header
    version = header.get("format")
    if version != FORMAT_VERSION:
        raise StaleCheckpoint(
            f"checkpoint format {version!r} is not supported "
            f"(this build reads format {FORMAT_VERSION})")
    return _seat_checkpoint(header, frame.sections)


def _seat_checkpoint(header: dict, loaded: list):
    instance = build_twin(header.get("class"), header.get("params"))
    expected = state_arrays(instance)
    if len(loaded) != len(expected):
        raise ValueError(
            f"state array count mismatch: checkpoint has {len(loaded)}, "
            f"{header['class']} expects {len(expected)}")
    _load_state(instance, loaded)
    return instance


# -- merging ------------------------------------------------------------------


def map_mismatches(target, other) -> list[str]:
    """Human-readable differences preventing ``merge_into(target, other)``."""
    if type(target) is not type(other):
        return [f"type: {type(target).__name__} != {type(other).__name__}"]
    mine, theirs = params_of(target), params_of(other)
    return [f"{key}: {mine.get(key)!r} != {theirs.get(key)!r}"
            for key in sorted(set(mine) | set(theirs))
            if mine.get(key) != theirs.get(key)]


def merge_into(target, other) -> None:
    """In-place shard merge: afterwards ``target`` sketches ``x + y``.

    Validates map compatibility first and raises
    :class:`IncompatibleShards` naming every mismatched field.
    """
    mismatches = map_mismatches(target, other)
    if mismatches:
        raise IncompatibleShards(
            f"cannot merge {type(target).__name__} shards with different "
            f"maps ({'; '.join(mismatches)})")
    _merge_walk(target, other)


def _merge_walk(target, other) -> None:
    spec = spec_for(target)
    if spec.merge is not None:
        spec.merge(target, other)
        return
    own = spec.arrays(target)
    if own:
        spec.set_arrays(target, [mine + theirs for mine, theirs
                                 in zip(own, spec.arrays(other))])
    for mine, theirs in zip(spec.children(target), spec.children(other)):
        _merge_walk(mine, theirs)
