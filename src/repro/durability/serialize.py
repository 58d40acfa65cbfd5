"""Lossless encoding of the service's durable records.

Journal records must round-trip without losing the two things plain JSON
cannot carry:

* **tuples** — request cache keys are nested tuples of primitives (see
  :func:`repro.workload.builders.workload_cache_key`), and tuple-vs-list
  identity matters because restored keys must hash equal to live ones;
* **numpy arrays** — released noisy answers must be restored *byte-identical*
  (the crash-recovery property suite compares raw bytes), so arrays carry
  their little-endian buffer, never decimal text.

``encode`` maps a value to a structure of JSON values and numpy arrays,
using tagged objects (``{"__tuple__": [...]}``, ``{"__bytes__": array}``);
``decode`` inverts it.  Arrays stay arrays, and so does a ``bytes`` value,
as a ``uint8`` array under its tag: :func:`pack` splits a record into a
small JSON header, where each array is a ``{"__raw__": offset, "dtype",
"shape"}`` tag, and the arrays whose bytes follow it; :func:`unpack`
inverts that.  Unknown objects degrade to a tagged ``repr`` string — loud
in the decoded structure rather than silently wrong — which only ever
affects free-form diagnostic payloads (``QueryResponse.info``), never
budget or answers.
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np

__all__ = ["encode", "decode", "pack", "unpack"]

#: Tag keys; a plain dict that happens to contain one of these would be
#: mis-decoded, so ``encode`` escapes such dicts as ``{"__dict__": [[key,
#: value], ...]}``: no JSON object with a tag key ever comes from data.
_TAGS = ("__tuple__", "__raw__", "__bytes__", "__repr__", "__dict__")


def encode(value):
    """A structure of JSON values and numpy arrays that :func:`decode`
    inverts exactly; :func:`pack` writes its arrays as raw bytes."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [encode(item) for item in value]}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, bytes):
        return {"__bytes__": np.frombuffer(value, np.uint8)}
    if isinstance(value, dict):
        encoded = {str(key): encode(item) for key, item in value.items()}
        if any(tag in encoded for tag in _TAGS):
            return {"__dict__": [[key, item] for key, item in encoded.items()]}
        return encoded
    return {"__repr__": repr(value)}


def decode(value):
    """Invert :func:`encode` (arrays that are already arrays pass through)."""
    if isinstance(value, list):
        return [decode(item) for item in value]
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(decode(item) for item in value["__tuple__"])
        if "__bytes__" in value:
            return value["__bytes__"].tobytes()
        if "__repr__" in value:
            return value["__repr__"]
        if "__dict__" in value:
            return {key: decode(item) for key, item in value["__dict__"]}
        return {key: decode(item) for key, item in value.items()}
    return value


class _Tagger(threading.local):
    """The header encoder's ``default``: tags an array and keeps it, per
    thread, so one encoder serves every :func:`pack` call (building one per
    call adds about a tenth to encoding a one-event commit record)."""

    def __call__(self, value):
        if not isinstance(value, np.ndarray):
            return float(value)
        # (ascontiguousarray would turn a 0-d array into a 1-d one.)
        self.arrays.append(value if value.flags.c_contiguous else np.ascontiguousarray(value))
        tagged = {"__raw__": self.size, "dtype": value.dtype.str, "shape": list(value.shape)}
        self.size += value.nbytes
        return tagged


_TAGGER = _Tagger()
_HEADER_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_TAGGER)


def pack(record: dict) -> tuple[bytes, list[np.ndarray]]:
    """``record`` as a compact JSON header and the arrays it holds, in order.

    Each array in the header is a ``{"__raw__": offset, "dtype", "shape"}``
    tag, ``offset`` being where its bytes start in the arrays' concatenated
    buffers; numpy scalars are written as floats.
    """
    _TAGGER.arrays, _TAGGER.size = [], 0
    header = _HEADER_ENCODER.encode(record).encode("utf-8")
    return header, _TAGGER.arrays


def unpack(header: bytes, raw) -> dict:
    """Invert :func:`pack`: the record of ``header`` with its arrays read
    from the buffer ``raw`` into arrays that own their memory."""
    if b'"__raw__"' not in header:
        return json.loads(header)

    def array(tagged: dict):
        # Only a tag has the key: encode escapes data dicts that have it.
        if "__raw__" not in tagged:
            return tagged
        dtype, shape = np.dtype(tagged["dtype"]), tagged["shape"]
        flat = np.frombuffer(raw, dtype, math.prod(shape), tagged["__raw__"])
        return flat.reshape(shape).copy()

    return json.loads(header, object_hook=array)
