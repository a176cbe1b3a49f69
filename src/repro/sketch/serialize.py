"""Byte-level serialization for linear sketches.

The Section 4 protocols "send the memory contents over" — this module
makes that literal: any :class:`~repro.sketch.linear.LinearSketch`
subclass that declares its constructor parameters via ``_params()``
gets ``to_bytes`` / ``from_bytes`` for free.  The payload is a
:mod:`repro.wire` frame (``KIND_SKETCH``): a JSON header naming the
class + parameters, followed by dtype-tagged counter-array sections,
so two honest parties sharing the seed reconstruct the *same* linear
map and can keep updating the shipped sketch — exactly the property
the one-way protocols rely on.

The encoded size is the physical message; the paper-model message size
(O(log n)-bit counters) remains ``space_bits()``.  Benchmarks report
both.
"""

from __future__ import annotations

from ..wire import KIND_SKETCH, WireError, decode_frame, encode_frame

#: Registry of serializable sketch classes, filled by register().
_REGISTRY: dict[str, type] = {}


def register(cls):
    """Class decorator: make a LinearSketch subclass wire-serializable.

    The class must implement ``_params() -> dict`` returning exactly the
    keyword arguments that reconstruct an empty twin (same linear map).
    """
    if not hasattr(cls, "_params"):
        raise TypeError(f"{cls.__name__} must define _params()")
    _REGISTRY[cls.__name__] = cls
    cls.to_bytes = to_bytes
    cls.from_bytes = classmethod(_from_bytes_cls)
    return cls


def to_bytes(self, compress: str = "none") -> bytes:
    """Encode the sketch as a ``KIND_SKETCH`` wire frame."""
    header = {"class": type(self).__name__, "params": self._params()}
    return encode_frame(KIND_SKETCH, header, self._state_arrays(),
                        compress=compress)


def _instantiate(header: dict, state: list):
    name, params = header.get("class"), header.get("params")
    cls = _REGISTRY.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"unknown sketch class {name!r}")
    if not isinstance(params, dict):
        raise ValueError(f"{name} parameters must be a JSON object, "
                         f"not {params!r}")
    try:
        instance = cls(**params)
    except TypeError as exc:
        raise ValueError(f"{name} rejects parameters {params!r}: "
                         f"{exc}") from exc
    expected = instance._state_arrays()
    if len(state) != len(expected):
        raise ValueError("state array count mismatch")
    for mine, loaded in zip(expected, state):
        if mine.shape != loaded.shape:
            raise ValueError("state array shape mismatch")
    instance._replace_state([arr.astype(ref.dtype)
                             for arr, ref in zip(state, expected)])
    return instance


def from_bytes(data: bytes):
    """Reconstruct a sketch encoded by :func:`to_bytes`."""
    try:
        frame = decode_frame(data, expect_kind=KIND_SKETCH)
    except WireError as exc:
        raise ValueError(f"not a serialized sketch: {exc}") from exc
    return _instantiate(frame.header, frame.sections)


def _from_bytes_cls(cls, data: bytes):
    instance = from_bytes(data)
    if not isinstance(instance, cls):
        raise ValueError(f"payload is a {type(instance).__name__}, "
                         f"not a {cls.__name__}")
    return instance


def wire_bits(sketch) -> int:
    """The physical message size of a sketch, in bits."""
    return 8 * len(sketch.to_bytes())
