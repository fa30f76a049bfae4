"""mvnet benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload keyword-short --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout. BLAS and OpenMP threads are pinned to one for this process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the sample counts. With ``--trace 1`` the
spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")


def import_package():
    """Import mvnet from this checkout's ``src/``, never from elsewhere."""
    init = os.path.join(SOURCE, "mvnet", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a full checkout")
    sys.path.insert(0, SOURCE)
    import mvnet
    if os.path.realpath(mvnet.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: mvnet imported from {mvnet.__file__}, not {init}")
    return mvnet


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_package()
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = None
    if args.trace:
        spans_path = os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.tsv")
    report = workloads.run(workload, args.seed, args.seconds, bool(args.trace),
                           out_dir, spans_path)
    print(json.dumps({"env": environment(args.seed), "workload": workload.name,
                      "trace": args.trace, "detail": report.detail}))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
