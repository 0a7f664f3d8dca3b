"""mingsim benchmark: one workload, one fresh process, JSON result on the last line.

    python3 bench/run.py --workload ring-scale --seed 1 --seconds 28 --trace 0

The run imports mingsim from ``src/`` next to this directory, pins BLAS to
BLAS_THREADS threads, makes the workload's inputs from ``--seed`` and repeats
the workload's pass until the next one would end after ``--seconds`` (at
least one pass).  Every pass is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* wall_s: seconds of one pass at reference host speed: each step's median
  over the run's passes of its seconds corrected by ``hostspeed`` for the
  shared host's speed at the time, summed (see ``step_seconds``);
* setup_s: median, over SETUP_PROBES fresh processes, of the time from
  process start to ready (imports and input generation), at reference
  host speed (see ``setup_probe``);
* peak_rss_mb: ru_maxrss of this process;
* invocation_p50_ms / invocation_p95_ms: in cli-artifacts, the median and
  nearest-rank p95 over the step times (as for wall_s) of every ``cli.main``
  call of a pass (216 calls, so 10 lie beyond p95); in the other workloads
  the whole pass is one invocation and the run gives one estimate of it
  (wall_s), so p50 = p95 there.  The sample count is in the report.

``--trace 1`` alternates untraced and traced passes (at least one each),
reports the per-layer metrics of BENCHMARK.json from the traced passes
(per pass; 0 for a layer the workload never calls) and the tracing
overhead, traced minus untraced pass estimate.

The line before the result is a report: environment (nproc, BLAS pin,
versions, commit), pass counts, step times (corrected and raw), the host
speed samples, failed share and failed checks, and the workload's input
properties.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEMP_DIR = ROOT / ".bench_tmp"
# nproc is 2 on the reference machine; one thread gave steadier walls than two
BLAS_THREADS = 1
SETUP_PROBES = 5


def prepare() -> None:
    """Pin BLAS threads and temp files, and put the checkout's src/ first on the path.

    Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    TEMP_DIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(TEMP_DIR)  # the program's own temp files stay in the checkout too
    tempfile.tempdir = str(TEMP_DIR)
    sys.path.insert(0, str(ROOT / "src"))
    import mingsim

    if Path(mingsim.__file__).resolve().parent != ROOT / "src" / "mingsim":
        raise SystemExit(f"mingsim imported from {mingsim.__file__}, not from this checkout")


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its ready line, at reference speed.

    The host's speed is the kernel's time just before and just after the
    probe, taken in this process while the probe is not running.
    """
    from hostspeed import WARM_REFERENCE_S, speed_now

    before = speed_now()
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line != "ready\n":
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return seconds * WARM_REFERENCE_S / ((before + speed_now()) / 2)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def step_seconds(step_times: list[dict], sampler: Sampler) -> dict[str, float]:
    """Each step's median over the run's passes of its seconds at reference speed."""
    return {name: statistics.median(sampler.at_reference_speed(steps[name]) for steps in step_times)
            for name in step_times[0]}


def pass_seconds(step_times: list[dict], sampler: Sampler) -> float:
    """Seconds of one pass at reference speed: the steps' medians, summed."""
    return sum(step_seconds(step_times, sampler).values())


def raw_step_seconds(step_times: list[dict]) -> dict[str, float]:
    """Each step's median measured seconds, uncorrected."""
    return {name: statistics.median(steps[name][2] for steps in step_times) for name in step_times[0]}


def measure(workload, inputs, seconds: float, tracer):
    """Run passes until the next would overrun; check each outside the timed region."""
    from hostspeed import Sampler
    from mingsim import fkm

    steps = {"untraced": [], "traced": []}
    iterations, outcomes = [], []
    begin = time.perf_counter()
    with Sampler() as sampler:
        while True:
            start = time.perf_counter()
            traced = tracer is not None and len(steps["traced"]) < len(steps["untraced"])
            fkm.normal_modes.cache_clear()  # a CLI user pays the mode build in every process
            if traced:
                tracer.install()
            try:
                result = workload.run_pass(inputs)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                tracer.end_pass()
            steps["traced" if traced else "untraced"].append(result["steps"])
            outcomes += workload.check(inputs, result)
            iterations.append(time.perf_counter() - start)
            if tracer is not None and not steps["traced"]:
                continue
            if time.perf_counter() - begin + statistics.median(iterations) > seconds:
                break
    return steps, iterations, outcomes, result, sampler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    prepare()
    import workloads
    from hostspeed import REFERENCE_S

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=TEMP_DIR) as tmp:
            workload.setup(args.seed, Path(tmp))
            print("ready", flush=True)
        return 0

    setups = [] if args.trace else [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=TEMP_DIR) as tmp:
        inputs = workload.setup(args.seed, Path(tmp))
        steps, iterations, outcomes, last, sampler = measure(workload, inputs, seconds, tracer)
        properties = workload.properties(inputs, last)

    wall = pass_seconds(steps["untraced"], sampler)
    if args.trace:
        measured = tracer.metrics()
        overhead = pass_seconds(steps["traced"], sampler) - wall
        measured["trace.overhead_s"] = overhead
        measured["trace.overhead_share"] = overhead / wall
        invocations = []
        wanted = spec["per_layer"]
    else:
        if workload.step_invocations:
            invocations = list(step_seconds(steps["untraced"], sampler).values())
        else:
            invocations = [wall]  # the whole pass is one invocation; one estimate per run
        measured = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "invocation_p50_ms": statistics.median(invocations) * 1e3,
            "invocation_p95_ms": percentile(invocations, 0.95) * 1e3,
        }
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise SystemExit(f"BENCHMARK.json names metrics this run does not measure: {missing}")

    failed = [o for o in outcomes if not o.ok]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "environment": environment(),
        "passes": {mode: len(v) for mode, v in steps.items()},
        "iteration_walls_s": iterations,
        "step_s": step_seconds(steps["untraced"], sampler),
        "raw_step_s": raw_step_seconds(steps["untraced"]),
        "host_speed": {
            "samples": len(sampler.seconds),
            "reference_s_median": statistics.median(sampler.seconds),
            "reference_s_nominal": REFERENCE_S,
        },
        "setup_probes_s": setups,
        "invocation_samples": len(invocations),
        "failed_share": len(failed) / len(outcomes),
        "failed_checks": dict(Counter(o.name for o in failed)),
        "properties": properties,
        "measured": measured,
    }
    result = {
        "correct": all(o.ok or o.operation for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
