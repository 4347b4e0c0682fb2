"""Trace persistence.

Traces are JSON-lines: a metadata record followed by one self-contained
record per iteration, flushed line by line so a crash (or truncation) always
leaves a parseable prefix.  Points serialize as plain coordinate arrays plus
the manifold tag carried in the metadata.
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


class TraceWriter:
    """Incremental JSON-lines writer; one flushed line per record."""

    def __init__(self, path, meta: dict):
        self.path = path
        self._fh = open(path, "w")
        rec = {"type": "meta", "schema": TRACE_SCHEMA}
        rec.update({k: _jsonify(v) for k, v in meta.items()})
        self._write(rec)

    def _write(self, rec: dict):
        self._fh.write(json.dumps(rec, sort_keys=True))
        self._fh.write("\n")
        self._fh.flush()

    def record(self, k: int, coords, f: float, grad_norm: float, slack=None, **extra):
        rec = {
            "type": "iter",
            "k": int(k),
            "coords": _jsonify(np.asarray(coords)),
            "f": float(f),
            "grad_norm": float(grad_norm),
            "slack": None if slack is None else float(slack),
        }
        rec.update({k2: _jsonify(v) for k2, v in extra.items()})
        self._write(rec)

    def close(self):
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

    @property
    def ks(self):
        return np.array([r["k"] for r in self.records])

    def column(self, name, default=np.nan):
        return np.array(
            [r.get(name, default) if r.get(name) is not None else default for r in self.records],
            dtype=float,
        )

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
    line)."""
    meta = None
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                break  # truncated tail from a crash; keep the parseable prefix
            if rec.get("type") == "meta":
                meta = rec
            elif rec.get("type") == "iter":
                records.append(rec)
    if meta is None:
        raise ValueError(f"{path}: no metadata record found")
    return TraceData(meta, records)


def trace_to_csv(data: TraceData, path):
    """Numeric columns only, one row per iteration."""
    cols = data.numeric_columns()
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in data.records:
            row = []
            for c in cols:
                v = r.get(c)
                row.append("" if v is None else repr(float(v)))
            fh.write(",".join(row) + "\n")


def write_plot_data(data: TraceData, path):
    """Two-column (k, gap) whitespace-separated file, gnuplot-compatible."""
    gaps = data.gaps
    with open(path, "w") as fh:
        fh.write("# k gap\n")
        for k, g in zip(data.ks, gaps):
            fh.write(f"{int(k)} {float(g)!r}\n")
