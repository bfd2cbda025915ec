"""Matrix file formats, and the one JSON encoding of every report.

JSON format (bit-exact round trip through repr of doubles):

    {"dim": m, "entries": [[[re, im], ...], ...]}   # row-major

Binary format: 16-byte header -- magic ``PVLB``, u32 little-endian dim,
two reserved u32 fields (zero) -- followed by dim*dim interleaved
little-endian f64 pairs (re, im), row-major.

Reports: every report dataclass derives from :class:`JsonReport`, whose
``to_json_dict`` is the single path from a report to plain JSON values.
"""

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .finite_vn import TracedMatrix

MAGIC = b"PVLB"
_HEADER = struct.Struct("<4sIII")


def _plain(value):
    """Dataclass fields in declaration order, str dict keys, lists for
    tuples, Python scalars for numpy scalars; anything else as it is."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


class JsonReport:
    """Base of the report dataclasses: ``to_json_dict`` holds only values
    plain ``json.dumps`` accepts, keyed in field declaration order (dict
    fields keep their insertion order), so artifacts are reproducible."""

    def to_json_dict(self) -> dict:
        return _plain(self)


def to_json_obj(x: TracedMatrix) -> dict:
    ent = [[[float(v.real), float(v.imag)] for v in row] for row in x.entries]
    return {"dim": x.dim, "entries": ent}


def from_json_obj(obj: dict) -> TracedMatrix:
    """Parse the JSON layout; any malformed input raises ValueError."""
    try:
        dim = int(obj["dim"])
        rows = obj["entries"]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError("entries shape does not match dim")
        a = np.array([[complex(re, im) for re, im in row] for row in rows])
    except KeyError as exc:
        raise ValueError(f"matrix JSON lacks the key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    return TracedMatrix(a)


def save_json(x: TracedMatrix, path) -> None:
    Path(path).write_text(json.dumps(to_json_obj(x)))


def load_json(path) -> TracedMatrix:
    return from_json_obj(json.loads(Path(path).read_text()))


def save_binary(x: TracedMatrix, path) -> None:
    body = np.ascontiguousarray(x.entries, dtype="<c16")  # (re, im) f64 pairs
    Path(path).write_bytes(_HEADER.pack(MAGIC, x.dim, 0, 0) + body.tobytes())


def load_binary(path) -> TracedMatrix:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError("truncated matrix file")
    magic, dim, _, _ = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if len(raw) - _HEADER.size != 16 * dim * dim:
        raise ValueError(f"payload of {len(raw) - _HEADER.size} bytes does not match dim {dim}")
    # a view, not re + 1j * im, which turns a -0.0 real part into 0.0
    body = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    return TracedMatrix(body.reshape(dim, dim))


def load_matrix(path) -> TracedMatrix:
    """Dispatch on content: binary if the file starts with the magic."""
    p = Path(path)
    with open(p, "rb") as fh:
        head = fh.read(4)
    return load_binary(p) if head == MAGIC else load_json(p)
