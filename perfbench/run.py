"""End-to-end benchmark of the public entry points.

Run from the repository root::

    python3 perfbench/run.py --workload mcm-bipartite --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every measured metric with its unit and sample count, plus the
host facts results depend on.  The metric names and units come from
``BENCHMARK.json``.  See ``perfbench/NOTES.md`` for what each metric
means and why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_facts(env: dict) -> dict:
    """What results depend on besides the code: compare results only
    between runs whose host facts agree."""
    import numpy

    from repro.congest import sharding

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "auto_shard_min_nodes": sharding.AUTO_SHARD_MIN_NODES,
        "repro_shards_env": env.get(sharding.SHARDS_ENV,
                                    os.environ.get(sharding.SHARDS_ENV, "")),
    }


def stop_children() -> None:
    """End every process the program started before this one exits.

    Shard pools close when their networks are collected; the
    shared-memory resource tracker would otherwise outlive this process.
    """
    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=30)
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        run = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    finally:
        stop_children()

    print("host " + json.dumps(host_facts(run.env), sort_keys=True))
    if run.attempted:
        print(f"fail_frac = {run.failed / run.attempted:.4g} "
              f"({run.failed}/{run.attempted})")
    for message in run.errors:
        print(f"failure: {message}")
    metrics = {}
    if args.trace:
        for item in spec["per_layer"]:
            value = float(run.layers.get(item["name"], 0.0))
            metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        for name, value in sorted(run.layers.items()):
            print(f"{name} = {value:.6g}")
    else:
        for name, (value, unit, samples) in run.metrics.items():
            raw = run.raw[name]
            note = f"; raw {raw:.6g}" if raw != value else ""
            print(f"{name} = {value:.6g} {unit} (n={samples}{note})")
        print(f"host probe = {run.layers['host.probe_s']:.6g} s "
              f"(n={len(run.probe.times)})")
        for item in spec["end_to_end"]:
            value, unit, _ = run.metrics.get(item["name"],
                                             (0.0, item["unit"], 0))
            metrics[item["name"]] = {"value": float(value), "unit": unit}
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": max(1, run.attempted),
                      "failed": run.failed if run.attempted else 1,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
