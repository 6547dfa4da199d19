"""noonring benchmark: time workloads end to end, or trace them per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/noonring` and
`BENCHMARK.json`. The load is a closed loop: one caller runs the workload's
experiment list in one process, one run after another. Every pass of the
list runs in a fresh worker process (perfbench/worker.py), because peak
memory is a lifetime high-water mark and set-up is the time from a fresh
process to ready. With --trace 0, one untimed worker first warms the file
cache the imports read, and workers that stop once ready then fill
SETUP_SHARE of the S seconds, so set-up has many more samples than the
passes. Then workers run one pass each, one at a time, until the next one
would end after S seconds, with at least MIN_PASSES.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
medians over the passes (set-up over every timed worker). With --trace 1 the passes
alternate between traced and untraced workers and the metrics are the
per-layer ones, medians over the traced passes. The last line of standard
output is one JSON object with keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_SHARE = 0.3
WORKER_TIMEOUT_S = 100.0


class WorkerError(RuntimeError):
    """A worker exited without a report."""


def spawn(workload: str, seed: int, directory: Path, mode: str = "") -> tuple[float, dict | None]:
    """Run one worker; return the set-up seconds it reports and its report.

    `mode` is "", "--trace" or "--setup-only"; the last gives no report.
    """
    for i, experiment in enumerate(workloads.plan(workload, seed)):
        experiment.write_config(directory / str(i))
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(directory)] + ([mode] if mode else [])
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().split()
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(directory, ignore_errors=True)
    if len(ready) != 2 or ready[0] != "ready" or code != 0:
        raise WorkerError(f"worker exited with code {code}")
    setup_s = float(ready[1])
    if mode == "--setup-only":
        return setup_s, None
    if not lines:
        raise WorkerError("worker exited without a report")
    return setup_s, json.loads(lines[-1])


def measure(args, out: Path) -> tuple[list[float], list, int, list[str]]:
    """Spawn workers until the time is used.

    Returns every set-up sample, (report, traced) per pass, and the attempted
    and failed experiment runs.
    """
    setups, passes, attempted, failed = [], [], 0, []
    start = time.perf_counter()
    if not args.trace:
        for i in itertools.count():
            try:
                setup_s = spawn(args.workload, args.seed, out / f"setup{i}", "--setup-only")[0]
            except WorkerError:
                break  # the passes below record the failure
            if i:  # the first worker only warms the file cache
                setups.append(setup_s)
            if time.perf_counter() - start > SETUP_SHARE * args.seconds:
                break
    longest = 0.0
    for i in itertools.count():
        traced = bool(args.trace) and i % 2 == 0
        began = time.perf_counter()
        try:
            setup_s, report = spawn(args.workload, args.seed, out / str(i),
                                    "--trace" if traced else "")
        except (WorkerError, json.JSONDecodeError) as exc:
            size = len(workloads.plan(args.workload, args.seed))
            attempted += size
            failed += [f"worker: {exc}"] * size
        else:
            attempted += report["attempted"]
            failed += report["failed"]
            setups.append(setup_s)
            passes.append((report, traced))
        longest = max(longest, time.perf_counter() - began)
        if i + 1 >= MIN_PASSES and time.perf_counter() - start + longest > args.seconds:
            break
    return setups, passes, attempted, failed


def end_to_end(setups: list[float], passes: list, attempted: int, failed: list[str]) -> dict:
    return {
        "wall_s": statistics.median(report["wall_s"] for report, _ in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report, _ in passes),
        "ok_frac": (attempted - len(failed)) / attempted,
    }


def per_layer(passes: list, names: list[str]) -> dict:
    traced = [report for report, is_traced in passes if is_traced]
    untraced = [report["wall_s"] for report, is_traced in passes if not is_traced]
    if not traced or not untraced:
        raise WorkerError("need at least one traced and one untraced pass")
    untraced_wall = statistics.median(untraced)
    return {
        name: statistics.median(
            tracer.layer_value(name, report["trace"], report["wall_s"], untraced_wall)
            for report in traced)
        for name in names
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "noonring" / "__init__.py").is_file():
        print("error: no src/noonring here; run from the root of a noonring checkout",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    out = root / ".perfbench_out" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        setups, passes, attempted, failed = measure(args, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if not passes:
        print("error: every worker failed", file=sys.stderr)
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in spec[kind]]
    values = (per_layer(passes, names) if args.trace
              else end_to_end(setups, passes, attempted, failed))
    if set(values) != set(names):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}

    walls = {flag: sorted(round(report["wall_s"], 4) for report, traced in passes
                          if traced == flag) for flag in (False, True)}
    print("environment: " + json.dumps(passes[0][0]["environment"], sort_keys=True))
    print(f"passes: {len(passes)}, wall_s samples {walls[False]}, traced {walls[True]}; "
          f"set-up samples: {len(setups)}; experiment runs attempted {attempted}, "
          f"failed {len(failed)}")
    for line in failed:
        print(f"failed: {line}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
