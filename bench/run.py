"""histopatch benchmark: desk-scale training of both stages and paper-scale
inference, timed end to end and, in a traced run, per layer.

    python3 bench/run.py --workload desk-train-patch --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in this process; ``--workload all`` runs each workload in a
fresh child process.  The last line on stdout is one JSON object (for ``all``,
one per workload, keyed by name); a readable report goes to stderr.  The exit
code is 0 when every correctness check passed, 1 when one failed and 2 when
the program under test cannot be found.  See bench/README.md.
"""

import os

# Single-threaded BLAS, as in the determinism tests; must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"  # generated datasets and checkpoints; removed after each run
WORKLOADS = ("desk-train-patch", "desk-train-image", "paper-infer")


def _import_program():
    """Import histopatch from this checkout's src/ and nowhere else."""
    if not (SRC / "histopatch" / "__init__.py").is_file():
        print(f"bench: no histopatch package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import histopatch
    if Path(histopatch.__file__).resolve().parent != SRC / "histopatch":
        print(f"bench: imported histopatch from {histopatch.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def execute(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run one workload in this process and return its result object."""
    _import_program()
    import hooks
    import workloads

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        e2e, layers, checks, attempted = workloads.run(workload, seed, seconds, trace, work, toy)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (ok, detail) in checks.results.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"),
              file=sys.stderr)
    for name, value in e2e.items():
        print(f"{workload} {name} = {value:.6g} {workloads.UNITS.get(name, '')}", file=sys.stderr)
    print(f"{workload} attempted {attempted} failed 0 trace {int(trace)}", file=sys.stderr)
    if layers is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in workloads.UNITS.items()}
    else:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in hooks.LAYER_METRICS}
    return {"correct": checks.ok, "attempted": attempted, "failed": 0, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload != "all":
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results, code = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
        code = max(code, proc.returncode)
    for workload, result in results.items():
        print(f"{workload}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
