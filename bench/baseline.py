"""Record a baseline: every workload over several seeds, plus one traced run each.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Runs ``run.py`` serially, each run in its own process.  For each workload
and end-to-end metric, it writes the values, their median, and the quartile
spread (the distance between the first and third quartile, as a share of
the median).  It also writes the failed
share, the input properties of the first seed, and the per-layer metrics
of a traced run at that seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return report, result


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, seed, 0) for seed in args.seeds]
        traced_report, traced = one_run(workload, args.seeds[0], 1)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [result["metrics"][m["name"]]["value"] for _, result in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[m["name"]] = {"unit": m["unit"], "median": median, "spread": (q3 - q1) / median, "values": values}
            print(f"{workload} {m['name']}: median {median:.6g} spread {(q3 - q1) / median:.4f}", flush=True)
        summary[workload] = {
            "seeds": args.seeds,
            "environment": runs[0][0]["environment"],
            "correct": [result["correct"] for _, result in runs],
            "attempted": [result["attempted"] for _, result in runs],
            "failed": [result["failed"] for _, result in runs],
            "failed_checks": runs[0][0]["failed_checks"],
            "properties": runs[0][0]["properties"],
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_passes": traced_report["passes"],
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
