"""One measured process: set up, run a workload's experiment list once, report.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace | --setup-only]

Run from the root of a checkout that holds `src/noonring`. The process pins
the BLAS thread count to the CPUs it may use before numpy is imported,
imports `noonring` from `src/`, resolves every experiment's configuration,
enumerates the Fock bases it needs, makes one small dense eigendecomposition
(the first one in a process stalled for ~1 s in about one fresh process in
eight on a 2-core test machine; that first-call cost belongs to set-up), and
then prints `ready` and its set-up seconds, timed from the script's first
statement, so interpreter start-up and process spawn are left out. The
experiment list then runs once through `noonring.cli.main`, in-process, with
each run's written table and manifest checked after it (outside the timed
region). The last line of output is a JSON report; with --setup-only the
process exits after `ready` instead, giving the parent one more set-up
sample. Because `ru_maxrss` is a lifetime high-water mark, each measurement
needs a process of its own.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()   # set-up is timed from the first statement

import os  # noqa: E402

THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

SRC = Path.cwd() / "src"


def _import_noonring():
    sys.path.insert(0, str(SRC))
    import noonring.cli
    import noonring.fock
    where = Path(noonring.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"noonring imported from {where}, not from {SRC}")
    return noonring.cli, noonring.fock


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": THREADS,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def run_pass(cli, experiments, directory: Path) -> tuple[float, list[str]]:
    """Run each experiment once: seconds inside `cli.main`, one line per failed run."""
    wall = 0.0
    failed = []
    for i, experiment in enumerate(experiments):
        where = directory / str(i)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(experiment.argv(where))
            wall += time.perf_counter() - start
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                problems = experiment.check(where)
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            name = f"{experiment.kind} {experiment.label}".strip()
            failed.append(f"{name}: " + "; ".join(problems[:3]))
    return wall, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli, fock = _import_noonring()
    experiments = workloads.plan(args.workload, args.seed)
    for i, experiment in enumerate(experiments):
        cli.resolve_config(cli.build_parser().parse_args(experiment.argv(args.out / str(i))))
    for n_total in sorted({experiment.n_total for experiment in experiments}):
        fock.enumerate_basis(n_total)
    import numpy
    numpy.linalg.eigh(numpy.eye(300) + 0.1)
    print(f"ready {time.perf_counter() - STARTED!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wall, failed = run_pass(cli, experiments, args.out)
    report = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(experiments),
        "failed": failed,
        "environment": environment(),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
