"""The config schema: one table that gives each (section, key) its type and
range, its default and the kinds that read it.  ``harness.load_config``
walks it, and the builders read every value through ``value``, so each
default is written once, here."""

from __future__ import annotations

import math
import os
from typing import Callable, NamedTuple

SECTIONS = ("manifold", "objective", "algorithm", "run", "output")
ORACLE_KINDS = ("rgd", "proximal")


def finite(v) -> bool:
    # YAML's true/false load as bool, a subclass of int
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


class Type(NamedTuple):
    words: str   # "<section>.<key> must be <words>"; {0} is n, {1} the ambient dimension
    ok: Callable   # ok(value, dims), dims = (n, ambient dimension), None if not known
    options: tuple | None = None   # a choice's values


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _choice(options: tuple, words: str | None = None) -> Type:
    return Type(words or f"one of {options}", lambda v, d: v in options, options)


def _vector(axis: int) -> Type:
    # checked once a valid manifold section gives the length
    return Type(f"a list of {{{axis}}} numbers", lambda v, d: d is None or isinstance(
        v, list) and len(v) == d[axis] and all(map(finite, v)))


# a null number passes: the builder derives the value, or float() rejects it
POSITIVE = Type("a positive number", lambda v, d: v is None or finite(v) and v > 0)
NONNEGATIVE = Type("a nonnegative number", lambda v, d: v is None or finite(v) and v >= 0)
POSITIVE_INT = Type("a positive integer", lambda v, d: _int(v) and v > 0)
SEED = Type("a nonnegative integer", lambda v, d: _int(v) and v >= 0)
PATH = Type("a file path", lambda v, d: isinstance(v, str)
            and os.path.basename(v) not in ("", ".", ".."))


class Key(NamedTuple):
    type: Type
    default: object = None   # {kind: default, None: otherwise} where the kinds differ
    kinds: tuple | None = None   # the kinds that read the key; None: every kind


# A default of None: the key is required (kind), or the builder derives it as noted.
SCHEMA = {
    ("manifold", "kind"): Key(_choice(("euclidean", "sphere", "hyperboloid"))),
    ("manifold", "n"): Key(POSITIVE_INT, 2),
    ("manifold", "radius"): Key(POSITIVE, 1.0, ("sphere",)),
    ("manifold", "kappa"): Key(POSITIVE, 1.0, ("hyperboloid",)),
    ("objective", "kind"): Key(_choice(
        ("quadratic", "squared_distance", "frechet_mean", "sphere_rayleigh"))),
    ("objective", "seed"): Key(SEED, 0, ("squared_distance", "frechet_mean")),
    ("objective", "domain_radius"): Key(POSITIVE, {"quadratic": 10.0, None: 2.0},
                                        ("quadratic", "squared_distance", "frechet_mean")),
    ("objective", "b"): Key(_vector(0), None, ("quadratic",)),  # zeros
    ("objective", "scales"): Key(_vector(0), None, ("quadratic",)),  # ones
    ("objective", "target"): Key(_vector(1), None, ("squared_distance",)),  # drawn
    ("objective", "target_distance"): Key(NONNEGATIVE, 1.0, ("squared_distance",)),
    ("objective", "domain_center"): Key(_choice(("origin", "target")), "origin",
                                        ("squared_distance",)),
    ("objective", "num_points"): Key(POSITIVE_INT, 5, ("frechet_mean",)),
    ("objective", "spread"): Key(NONNEGATIVE, 0.7, ("frechet_mean",)),
    ("objective", "diag"): Key(_vector(1), None, ("sphere_rayleigh",)),  # 2, 1, 0.5, ...
    ("algorithm", "kind"): Key(_choice(("rgd", "proximal", "cubic_newton", "accelerated"))),
    ("algorithm", "eta"): Key(POSITIVE, 1.0, ORACLE_KINDS),  # rgd: 1/L where L > 0
    ("algorithm", "tol_prox"): Key(POSITIVE, 1e-9, ("proximal",)),
    ("algorithm", "M"): Key(POSITIVE, None, ("cubic_newton",)),  # from rho
    ("algorithm", "theta"): Key(POSITIVE, None, ("cubic_newton",)),  # from rho
    ("algorithm", "rho"): Key(POSITIVE, None, ("cubic_newton",)),  # declared or estimated
    ("algorithm", "rho_seed"): Key(SEED, 0, ("cubic_newton",)),
    ("algorithm", "mode"): Key(_choice(("gconvex", "strongly"), "gconvex or strongly"),
                               "gconvex", ("accelerated",)),
    ("algorithm", "delta_mode"): Key(_choice(("analytic", "oracle"), "analytic or oracle"),
                                     "analytic", ("accelerated",)),
    ("algorithm", "oracle"): Key(_choice(ORACLE_KINDS), "rgd", ("accelerated",)),
    ("algorithm", "xi0"): Key(POSITIVE, None, ("accelerated",)),  # from the schedule
    ("run", "k_max"): Key(POSITIVE_INT, 1000),
    ("run", "x0_seed"): Key(SEED, 1),
    ("run", "x0"): Key(_vector(1)),  # drawn at x0_distance from the domain center
    ("run", "x0_distance"): Key(NONNEGATIVE),  # half the domain radius
    ("run", "domain_radius"): Key(POSITIVE),  # the objective's
    ("output", "trace"): Key(PATH, "trace.jsonl"),
    ("output", "report"): Key(PATH, "report.json"),
}


def value(section: str, spec: dict, key: str):
    """``spec[key]`` as written, else the table's default for the spec's kind
    (None where the builder derives it)."""
    if key in spec:
        return spec[key]
    default = SCHEMA[section, key].default
    return default.get(spec.get("kind"), default[None]) if isinstance(default, dict) else default


def violations(section: str, spec: dict, dims: tuple | None) -> list[str]:
    """Each key of ``spec`` that its kinds do not read or whose value is
    outside its type, in the order written after ``kind`` (checked when
    absent too).  The kinds are the section's kind and, for the accelerated
    scheme, its oracle's; every kind when the kind is invalid."""
    kind, kinds = spec.get("kind"), None
    if (section, "kind") in SCHEMA and SCHEMA[section, "kind"].type.ok(kind, None):
        kinds = {kind}
        if kind == "accelerated":
            oracle = value(section, spec, "oracle")
            kinds.update((oracle,) if oracle in ORACLE_KINDS else ORACLE_KINDS)
    where = f" for {section}.kind {kind!r}" if kinds else ""
    found = []
    for key in dict.fromkeys(["kind"] * ((section, "kind") in SCHEMA) + list(spec)):
        entry, v = SCHEMA.get((section, key)), spec.get(key)
        if entry is None or kinds and entry.kinds and not kinds.intersection(entry.kinds):
            found.append(f"unknown key {section}.{key}{where}")
        elif not entry.type.ok(v, dims):
            found.append(f"{section}.{key} must be {entry.type.words.format(*dims or ())}, got {v!r}")
    return found
