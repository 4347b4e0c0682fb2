"""Trace persistence.

Traces are JSON-lines: a metadata record followed by one self-contained
record per iteration.  The writer flushes the metadata line when it opens,
then writes and flushes the iteration records a block of ``BLOCK_SIZE`` at a
time, and the last, shorter block on ``close``.  A file therefore always holds
the metadata line plus whole records and parses to a prefix of the run: a
killed process loses at most the ``BLOCK_SIZE - 1`` records not yet written,
and a run that raises loses none once the writer is closed.  Points serialize
as plain coordinate arrays plus the manifold tag carried in the metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from geodescent.config import value
from geodescent.geometry import Euclidean, Hyperboloid, Manifold, Sphere

TRACE_SCHEMA = 1

ACCEL_FIELDS = ("delta", "xi", "A", "B", "E", "d_xy", "d_xz", "envelope")

# iteration records encoded, written and flushed at once
BLOCK_SIZE = 256

# json.dumps(rec, sort_keys=True) builds this encoder anew for every record
_encode = json.JSONEncoder(sort_keys=True).encode
# json.loads(line) is decode(line): raw_decode plus two whitespace matches
# that a stripped line does not need
_decode = json.JSONDecoder().raw_decode
# the types json gives a number or null; bool, a subclass of int, is not one
_NUMBER_OR_NULL = frozenset((int, float, type(None)))
# what float() raises on a JSON value that is not a number
_NOT_A_FLOAT = (TypeError, ValueError, OverflowError)


def manifold_spec(m: Manifold) -> dict:
    if isinstance(m, Euclidean):
        return {"kind": "euclidean", "n": m.dim}
    if isinstance(m, Sphere):
        return {"kind": "sphere", "n": m.dim, "radius": m.radius}
    if isinstance(m, Hyperboloid):
        return {"kind": "hyperboloid", "n": m.dim, "kappa": m.kappa}
    raise ValueError(f"unknown manifold {m!r}")


def build_manifold(spec: dict) -> Manifold:
    kind, get = spec.get("kind"), partial(value, "manifold", spec)
    n = int(get("n"))
    if kind == "euclidean":
        return Euclidean(n)
    if kind == "sphere":
        return Sphere(n, float(get("radius")))
    if kind == "hyperboloid":
        return Hyperboloid(n, float(get("kappa")))
    raise ValueError(f"unknown manifold kind {kind!r}")


def _jsonify(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _number(key: str, v):
    """An extra trace field as JSON: a number, or a numpy number or numeric
    array as Python numbers.  Anything else could hold the text that
    separates two records of a block, so it raises ``TypeError``."""
    if isinstance(v, np.ndarray):
        numeric = v.dtype.kind in "iuf"
    else:
        numeric = isinstance(v, (int, float, np.integer, np.floating)) and type(v) is not bool
    if numeric:
        return _jsonify(v)
    raise TypeError(f"trace field {key!r} must be None, a number or a numeric array, "
                    f"not {type(v).__name__}")


class TraceWriter:
    """Incremental JSON-lines writer.  The metadata line is flushed on
    opening; iteration records are encoded, written and flushed a block of
    ``BLOCK_SIZE`` at a time, and the rest on ``close``, so the file holds
    the metadata line plus whole records at every moment."""

    def __init__(self, path, meta: dict):
        self.path = path
        self._fh = open(path, "w")
        self._block = []
        rec = {"type": "meta", "schema": TRACE_SCHEMA}
        rec.update({k: _jsonify(v) for k, v in meta.items()})
        self._fh.write(_encode(rec) + "\n")
        self._fh.flush()

    def _write_block(self):
        # one encode for the block: a JSON array of the records, whose only
        # "}, {" are the separators between them, since no record holds text
        # or a nested object (``_number``)
        text = _encode(self._block)
        self._block.clear()
        self._fh.write(text[1:-1].replace("}, {", "}\n{") + "\n")
        self._fh.flush()

    def record(self, k: int, coords, f: float, grad_norm: float, slack=None, extra=None):
        """Add the record of iteration ``k``; ``extra`` maps further field
        names to None, numbers or numeric arrays."""
        rec = {
            "type": "iter",
            "k": int(k),
            "coords": np.asarray(coords).tolist(),
            "f": float(f),
            "grad_norm": float(grad_norm),
            "slack": None if slack is None else float(slack),
        }
        if extra:
            rec.update(extra)
            for key, v in extra.items():
                if v is not None and type(v) is not float:
                    rec[key] = _number(key, v)
        block = self._block
        block.append(rec)
        if len(block) == BLOCK_SIZE:
            self._write_block()

    def close(self):
        """Write the records not yet written and close the file."""
        try:
            if self._block:
                self._write_block()
        finally:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class TraceData:
    """A loaded trace: metadata plus per-iteration records."""

    meta: dict
    records: list[dict]
    path: str | None = None

    @property
    def ks(self):
        return np.array([r["k"] for r in self.records])

    def column(self, name, default=np.nan):
        try:
            return np.array([default if (v := r.get(name)) is None else v
                             for r in self.records], dtype=float)
        except _NOT_A_FLOAT as e:
            raise self._not_a_number((name,), e) from None

    def _not_a_number(self, names, err) -> ValueError:
        """``err``, raised converting the fields ``names`` to floats, as an
        error naming the trace and the first record whose value ``float``
        refuses."""
        for r in self.records:
            for name in names:
                if (v := r.get(name)) is not None:
                    try:
                        float(v)
                    except _NOT_A_FLOAT:
                        return ValueError(f"{self.path}: iter record k={r['k']}: "
                                          f"{name} is neither a number nor null")
        return ValueError(f"{self.path}: {err}")

    @property
    def values(self):
        return self.column("f")

    @property
    def f_star(self):
        return self.meta.get("f_star")

    @property
    def gaps(self):
        if self.f_star is None:
            raise ValueError("trace has no recorded f_star")
        return self.values - self.f_star

    def numeric_columns(self) -> list[str]:
        cols = ["k", "f", "grad_norm", "slack"]
        cols += [f for f in ACCEL_FIELDS if any(f in r for r in self.records)]
        return cols


def load_trace(path) -> TraceData:
    """Load a trace, or the prefix of one cut short: reading stops at the
    first line that does not parse.  Raises ``ValueError`` when no complete
    metadata record precedes it (an empty file, or one cut inside its first
    line), and names the line of a record that is not an object or whose
    ``k`` is not an integer or ``f`` or ``f_star`` not a number or null."""
    meta = None
    records = []
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = _decode(line)
            except json.JSONDecodeError:
                break  # truncated tail from a crash; keep the parseable prefix
            if end != len(line):
                break  # more than one value on the line, as json.loads refuses
            if type(rec) is not dict:
                raise ValueError(f"{path}: line {i}: not a JSON object")
            kind = rec.get("type")
            if kind == "meta":
                if type(rec.get("f_star")) not in _NUMBER_OR_NULL:
                    raise ValueError(f"{path}: line {i}: f_star is neither a number nor null")
                meta = rec
            elif kind == "iter":
                if type(rec.get("k")) is not int:
                    raise ValueError(f"{path}: line {i}: iter record has no integer k")
                if type(rec.get("f")) not in _NUMBER_OR_NULL:
                    raise ValueError(f"{path}: line {i}: f is neither a number nor null")
                records.append(rec)
    if meta is None:
        raise ValueError(f"{path}: no metadata record found")
    return TraceData(meta, records, path)


def trace_to_csv(data: TraceData, path):
    """Numeric columns only, one row per iteration.  Raises ``ValueError``
    naming the record of a value that is not a number or null."""
    cols = data.numeric_columns()
    lines = [",".join(cols)]
    try:
        for r in data.records:
            lines.append(",".join(["" if (v := r.get(c)) is None else repr(float(v))
                                   for c in cols]))
    except _NOT_A_FLOAT as e:
        raise data._not_a_number(cols, e) from None
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def write_plot_data(data: TraceData, path):
    """Two-column (k, gap) whitespace-separated file, gnuplot-compatible."""
    gaps = data.gaps
    with open(path, "w") as fh:
        fh.write("# k gap\n")
        for k, g in zip(data.ks, gaps):
            fh.write(f"{int(k)} {float(g)!r}\n")
