"""Seeded experiment sweeps that the benchmark feeds to ``geodescent``.

Each workload expands one integer seed into a list of experiment groups.  An
experiment is one YAML config; a group is a set of experiments that share an
objective and a starting point, so their traces can go through ``compare``.
The same seed always yields byte-identical configs.

Why each workload exists (also recorded in BENCHMARK.json):

* ``descent_sweep``: small problems (3- to 9-vectors) where the cost is Python
  call overhead in ``geometry`` and in the step functions of ``descent``:
  the proximal inner loop, the cubic subsolver and the Hessian-Lipschitz
  estimate in the cubic set-up.  Objectives are trivial and
  ``acceleration`` does no work.  ``k_max`` sits near each algorithm's
  convergence horizon so most recorded steps move the iterate.
* ``frechet_n1000``: the Frechet mean of 1000 samples on H^2, where
  ``objectives`` dominates and few iterations run.  Its reference minimizer
  is the expensive part of set-up.
* ``accel_sweep``: long accelerated runs where ``acceleration`` dominates:
  ``accel_step``, the oracle-delta fixed point, the energy bookkeeping, the
  O(k) guarantee checks and wide trace records.  The Euclidean Nesterov run
  bypasses curved geometry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import yaml

WORKLOADS = ("descent_sweep", "frechet_n1000", "accel_sweep")

# k_max per (algorithm, kappa or "sphere"), set at or below the step after
# which the recorded iterate stops changing bit for bit.  Over workload seeds
# 0-5 that step was (min-max): rgd 79-87 on H^n with kappa 1, 173-200 with
# kappa 4 and 1287-1304 on the S^2 Rayleigh quotient; proximal 30-35
# everywhere; cubic Newton 5-9 (kappa 1), 7-16 (kappa 4) and 7-11 (S^2).
# With these values, over workload seeds 21-30, every rgd step moved the
# iterate (on H^n and S^2 alike), as did 98.7-100% of proximal steps and
# 90.8-99.0% of cubic steps; bench/README.md has the table.
_DESCENT_K_MAX = {
    ("rgd", 1.0): 80, ("rgd", 4.0): 170, ("rgd", "sphere"): 1000,
    ("proximal", 1.0): 32, ("proximal", 4.0): 32, ("proximal", "sphere"): 30,
    ("cubic_newton", 1.0): 8, ("cubic_newton", 4.0): 12, ("cubic_newton", "sphere"): 9,
}


@dataclass(frozen=True)
class Experiment:
    name: str        # file stem, unique within a workload
    label: str       # algorithm label used to aggregate timings
    config: dict


@dataclass
class Group:
    """Experiments sharing an objective and x0, plus their post-processing."""

    name: str
    experiments: list[Experiment] = field(default_factory=list)
    fit: tuple[str, int, int] | None = None   # (experiment name, k_from, k_to)


def _config(name: str, manifold: dict, objective: dict, algorithm: dict,
            k_max: int, x0_seed: int) -> dict:
    return {
        "manifold": manifold,
        "objective": objective,
        "algorithm": algorithm,
        "run": {"k_max": k_max, "x0_seed": x0_seed, "x0_distance": 1.0},
        "output": {"trace": f"traces/{name}.jsonl", "report": f"reports/{name}.json"},
    }


def _seeds(rng: np.random.Generator) -> tuple[int, int]:
    obj_seed, x0_seed = rng.integers(0, 2**31 - 1, size=2)
    return int(obj_seed), int(x0_seed)


def _hyperboloids():
    for n in (2, 8):
        for kappa in (1.0, 4.0):
            yield f"h{n}k{kappa:g}", {"kind": "hyperboloid", "n": n, "kappa": kappa}, kappa


def _squared_distance(seed: int) -> dict:
    return {"kind": "squared_distance", "seed": seed, "target_distance": 0.8,
            "domain_radius": 2.0}


def _descent_sweep(rng) -> list[Group]:
    problems = []
    for rep in range(2):
        for tag, manifold, kappa in _hyperboloids():
            obj_seed, x0_seed = _seeds(rng)
            problems.append((f"{tag}-{rep}", manifold, _squared_distance(obj_seed), kappa, x0_seed))
        _, x0_seed = _seeds(rng)
        problems.append((f"s2-{rep}", {"kind": "sphere", "n": 2}, {"kind": "sphere_rayleigh"},
                         "sphere", x0_seed))
    groups = []
    for tag, manifold, objective, kkey, x0_seed in problems:
        g = Group(tag, fit=(f"{tag}.rgd", 1, 10))
        for kind, algorithm in (("rgd", {"kind": "rgd"}),
                                ("proximal", {"kind": "proximal", "eta": 1.0}),
                                ("cubic", {"kind": "cubic_newton"})):
            name = f"{tag}.{kind}"
            k_max = _DESCENT_K_MAX[(algorithm["kind"], kkey)]
            g.experiments.append(Experiment(
                name, kind, _config(name, manifold, objective, algorithm, k_max, x0_seed)))
        groups.append(g)
    return groups


def _frechet_n1000(rng) -> list[Group]:
    manifold = {"kind": "hyperboloid", "n": 2, "kappa": 1.0}
    groups = []
    for rep in range(2):
        obj_seed, x0_seed = _seeds(rng)
        objective = {"kind": "frechet_mean", "seed": obj_seed, "num_points": 1000,
                     "spread": 0.7, "domain_radius": 2.0}
        tag = f"frechet-{rep}"
        g = Group(tag, fit=(f"{tag}.rgd", 1, 10))
        for label, algorithm in (("rgd", {"kind": "rgd"}),
                                 ("accel", {"kind": "accelerated", "mode": "strongly",
                                            "oracle": "rgd"})):
            name = f"{tag}.{label}"
            g.experiments.append(Experiment(
                name, label, _config(name, manifold, objective, algorithm, 10, x0_seed)))
        groups.append(g)
    return groups


def _accel_sweep(rng) -> list[Group]:
    # Oracle-delta runs take 2 to 13 accelerated steps per iteration depending
    # on the draw, so each problem gets five of them; the first draw also
    # runs analytic delta and the g-convex schedule from the same x0.  With
    # eta = 0.005 no run gets near d(x, z) ~ 1e-8, where the analytic
    # distortion rate can round below 1 and stop the run (see README.md).
    groups = []
    for tag, manifold, _ in _hyperboloids():
        for draw in range(5):
            obj_seed, x0_seed = _seeds(rng)
            objective = _squared_distance(obj_seed)
            g = Group(f"{tag}-{draw}", fit=(f"{tag}-{draw}.oracle", 1, 100))
            variants = [("oracle", "accel_oracle", 150,
                         {"kind": "accelerated", "mode": "strongly", "oracle": "rgd",
                          "eta": 0.005, "delta_mode": "oracle"})]
            if draw == 0:
                variants += [
                    ("strongly", "accel", 150,
                     {"kind": "accelerated", "mode": "strongly", "oracle": "rgd", "eta": 0.005}),
                    ("gconvex", "accel", 300,
                     {"kind": "accelerated", "mode": "gconvex", "oracle": "rgd", "eta": 0.005}),
                ]
            for suffix, label, k_max, algorithm in variants:
                name = f"{g.name}.{suffix}"
                g.experiments.append(Experiment(
                    name, label, _config(name, manifold, objective, algorithm, k_max, x0_seed)))
            groups.append(g)
    _, x0_seed = _seeds(rng)
    name = "nesterov.gconvex"
    g = Group("nesterov", fit=(name, 10, 500))
    g.experiments.append(Experiment(name, "accel", _config(
        name, {"kind": "euclidean", "n": 2},
        {"kind": "quadratic", "b": [0.0, 0.0], "scales": [1.0, 1e-4]},
        {"kind": "accelerated", "mode": "gconvex", "oracle": "rgd"}, 1000, x0_seed)))
    groups.append(g)
    return groups


_BUILDERS = {"descent_sweep": _descent_sweep, "frechet_n1000": _frechet_n1000,
             "accel_sweep": _accel_sweep}


def generate(workload: str, seed: int) -> list[Group]:
    """Expand ``seed`` into the workload's experiment groups."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


def write_configs(groups: list[Group], directory: str) -> dict[str, str]:
    """Write one YAML file per experiment; returns experiment name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for g in groups:
        for e in g.experiments:
            path = os.path.join(directory, f"{e.name}.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(e.config, fh, sort_keys=True)
            paths[e.name] = path
    return paths


def distinct_objectives(groups: list[Group]) -> list[tuple[dict, dict]]:
    """The (manifold, objective) specs that set-up builds once each."""
    seen, out = set(), []
    for g in groups:
        for e in g.experiments:
            key = yaml.safe_dump([e.config["manifold"], e.config["objective"]], sort_keys=True)
            if key not in seen:
                seen.add(key)
                out.append((e.config["manifold"], e.config["objective"]))
    return out
