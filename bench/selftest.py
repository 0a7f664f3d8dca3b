"""Self-test of the benchmark's checkers.

    python3 bench/selftest.py

Runs one traced pass of every workload at seed 0 and checks it, then feeds
each workload's checker a corrupted copy of that result (a failed
criterion, a perturbed Monte-Carlo point, a perturbed mean, a flipped
artifact byte) and requires the failed share to rise and the run to turn
incorrect.  Also requires every per-layer metric named in BENCHMARK.json
to be produced by at least one workload, so none is 0 everywhere.
Exits 1 on any miss.  Takes about 40 s.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import run


def corrupt_reproduce(inputs, result):
    result["stdout"] = result["stdout"].replace("A2  PASS", "A2  FAIL", 1)


def corrupt_ring(inputs, result):
    row = result["rows"][0]
    row["mc"] = row["mc"].copy()
    row["mc"][5] += 10.0 * row["stderr"][5]


def corrupt_amplifier(inputs, result):
    n, mean = result["sweeps"][0.0][0]
    result["sweeps"][0.0][0] = (n, mean + 1e-9)


def corrupt_cli(inputs, result):
    seen = set()
    for record in result["records"]:
        config = inputs["configs"][record["config"]]
        if config.malformed or config.stdout:
            continue
        if record["config"] in seen:  # a rerun: its bytes must match the first run
            blob = bytearray(record["files"][config.files[0]])
            blob[0] ^= 1
            record["files"][config.files[0]] = bytes(blob)
            return
        seen.add(record["config"])


CORRUPTIONS = {
    "reproduce": corrupt_reproduce,
    "ring-scale": corrupt_ring,
    "amplifier-scale": corrupt_amplifier,
    "cli-artifacts": corrupt_cli,
}


def failed_share(outcomes) -> float:
    return sum(not o.ok for o in outcomes) / len(outcomes)


def main() -> int:
    run.prepare()
    import workloads
    from tracer import Tracer

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    produced = set()
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.TEMP_DIR) as tmp:
            inputs = workload.setup(0, Path(tmp))
            tracer = Tracer()
            tracer.install()
            try:
                result = workload.run_pass(inputs)
            finally:
                tracer.uninstall()
            tracer.end_pass()
            produced |= {k for k, v in tracer.metrics().items() if v}
            base = workload.check(inputs, result)
            broken = copy.deepcopy(result)
            CORRUPTIONS[name](inputs, broken)
            bad = workload.check(inputs, broken)
        rises = failed_share(bad) > failed_share(base)
        incorrect = not all(o.ok or o.operation for o in bad)
        print(f"{name}: failed share {failed_share(base):.4f} -> {failed_share(bad):.4f}, "
              f"corrupted run incorrect: {incorrect}")
        if not (rises and incorrect):
            problems.append(f"{name}: checker missed the corrupted result")
    never = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.") and m["name"] not in produced]
    if never:
        problems.append(f"per-layer metrics no workload produces: {never}")
    for problem in problems:
        print("FAIL:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
