"""Time the benchmark's set-up in a fresh process.

Set-up is what a user pays before the first experiment: importing
``geodescent.cli``, writing and loading the workload's configs, and one cold
``harness.build_objective`` per distinct objective, which fills the
reference-minimizer cache in ``--cache-dir``.  Prints one JSON line,
``{"setup_s": <normalized seconds>, "raw_s": <wall seconds>}`` (see
``calibrate.py``).

    python3 bench/setup_probe.py --workload W --seed N --dir D --cache-dir C
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--cache-dir", required=True)
    args = ap.parse_args()

    import geodescent.cli  # noqa: F401  (part of the timed set-up)
    from geodescent import harness
    from geodescent.traces import build_manifold

    import calibrate
    import workloads

    # Each step is timed on its own and followed by kernel samples, so the
    # kernel's own time stays out of the set-up time.
    steps, kernel = [time.perf_counter() - T0], []
    calibrate.sample_after(steps[-1], kernel)

    t0 = time.perf_counter()
    groups = workloads.generate(args.workload, args.seed)
    for path in workloads.write_configs(groups, args.dir).values():
        harness.load_config(path)
    steps.append(time.perf_counter() - t0)
    calibrate.sample_after(steps[-1], kernel)

    for manifold, objective in workloads.distinct_objectives(groups):
        t0 = time.perf_counter()
        harness.build_objective(objective, build_manifold(manifold), cache_dir=args.cache_dir)
        steps.append(time.perf_counter() - t0)
        calibrate.sample_after(steps[-1], kernel)
    print(json.dumps({"setup_s": calibrate.scale(kernel) * sum(steps), "raw_s": sum(steps)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
