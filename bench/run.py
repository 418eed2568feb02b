"""csigen benchmark: WGAN-GP training at desk scale, and a dense
synth -> split -> generate -> interpolate -> evaluate pipeline.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 1

Each workload runs in its own process with BLAS threads pinned.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a traced run.
The lines before it give the environment, every metric with its unit, and
information such as the final checkpoint's SHA-256.  A full result,
including the environment, goes to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-desk", "pipeline-dense")
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
    }


def run_one(args) -> int:
    for variable in THREAD_VARIABLES:  # before numpy loads BLAS
        os.environ[variable] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # imports numpy and csigen

    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    env = environment()
    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_root)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result}
    path = out_root / f"result_{args.workload}_s{args.seed}_t{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:16.6g} {metric['unit']}")
    for name, value in result["info"].items():
        print(f"  info {name}: {value}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or child.returncode
        if child.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="csigen benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "csigen").is_dir():
        print(f"csigen sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
