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
as a ``uint8`` array under its tag.  A record is written as a small JSON
header, where each array is a ``{"__raw__": offset, "dtype", "shape"}``
tag, and the arrays whose bytes follow it: :func:`pack` writes a dict that
way (an ``open`` record, or any record handed to the journal as a dict),
and :func:`pack_text` writes a header from a ``%s`` template and its values
— the form :func:`~repro.durability.records.pack_commit` writes each commit
in, straight from the session's rows.  Both spell every value as one JSON
encoder does, so a record's bytes do not depend on which wrote it.
:func:`unpack` inverts them.  Unknown objects degrade to a tagged ``repr``
string — loud in the decoded structure rather than silently wrong — which
only ever affects free-form diagnostic payloads (``QueryResponse.info``),
never budget or answers.
"""

from __future__ import annotations

import json
import math
import threading
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["encode", "decode", "pack", "pack_text", "unpack"]

#: Tag keys; a plain dict that happens to contain one of these would be
#: mis-decoded, so ``encode`` escapes such dicts as ``{"__dict__": [[key,
#: value], ...]}``: no JSON object with a tag key ever comes from data.
_TAGS = ("__tuple__", "__raw__", "__bytes__", "__repr__", "__dict__")


def encode(value):
    """A structure of JSON values and numpy arrays that :func:`decode`
    inverts exactly; :func:`pack` writes its arrays as raw bytes."""
    if value is None or isinstance(value, (str, int, float)):
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
        if not encoded.keys().isdisjoint(_TAGS):
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
    """Tags an array and keeps it for the raw section, per thread: the
    header encoder's ``default``, so one encoder built once serves every
    :func:`pack_text` call, and the tagger of each array that
    :func:`pack_text` spells itself."""

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


def _array_text(array: np.ndarray) -> str:
    """An array's raw tag as the header encoder writes it; the array joins
    the raw section."""
    tagged = _TAGGER(array)
    return '{"__raw__":%d,"dtype":%s,"shape":[%s]}' % (
        tagged["__raw__"],
        encode_basestring_ascii(tagged["dtype"]),
        ",".join(map(str, tagged["shape"])),
    )


#: the header encoder's spelling of each plain type and of an array, by
#: exact type; a value of any other type (a subclass included) goes through
#: the encoder itself.  A float is spelled by its repr, which JSON spells
#: differently only when it is not finite (:data:`_NONFINITE`).
_SPELLINGS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    np.ndarray: _array_text,
}
#: a non-finite float's repr and its JSON spelling.  Only a float's repr is
#: one of these bare words: a string is quoted, and the encoder spells NaN
#: and the infinities its own way.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def pack_text(template: str, values) -> tuple[bytes, list[np.ndarray]]:
    """The JSON header ``template % values``, each value spelled as the
    header encoder writes it, and the arrays the values hold, in order.

    ``template`` is JSON with one ``%s`` per value.  A value of a plain type
    (``str``, ``int``, ``float``, ``bool``, ``None``) is written by its
    spelling alone, and an array as its raw tag, at its offset in the
    arrays' concatenated buffers; any other value (a dict, a numpy scalar)
    goes through the encoder, which tags the arrays it holds the same way.
    """
    _TAGGER.arrays, _TAGGER.size = [], 0
    spell = _SPELLINGS.get
    fallback = _HEADER_ENCODER.encode
    texts = [spell(type(value), fallback)(value) for value in values]
    if not _NONFINITE.keys().isdisjoint(texts):
        texts = [_NONFINITE.get(text, text) for text in texts]
    return (template % tuple(texts)).encode("utf-8"), _TAGGER.arrays


def pack(record: dict) -> tuple[bytes, list[np.ndarray]]:
    """``record`` as a compact JSON header and the arrays it holds, in order.

    Each array in the header is a ``{"__raw__": offset, "dtype", "shape"}``
    tag, ``offset`` being where its bytes start in the arrays' concatenated
    buffers; numpy scalars are written as floats.
    """
    return pack_text("%s", (record,))


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
