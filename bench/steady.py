"""Steadiness of the benchmark: run each workload k times on the default seed
and print per end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json.

    python3 bench/steady.py --runs 10 [--workload NAME ...]

Every run uses the same seed, so the spread is run-to-run noise only, as when
two versions of the program are compared on one seed.  Quartiles are those of
`statistics.quantiles(values, n=4)`.  A metric whose spread is wider than its
bound is shown as unresolved: a change smaller than the spread cannot be told
from noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED  # noqa: E402


def run_once(workload: str, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        failed = attempted = 0
        for _ in range(args.runs):
            result = run_once(workload, spec["run_seconds"])
            failed += result["failed"]
            attempted += result["attempted"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"{workload}: {args.runs} runs, seed {DEFAULT_SEED}, failed {failed}/{attempted}")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  status")
        for m, bound in bounds.items():
            med, q1, q3, s = spread(values[m])
            status = "ok" if s <= bound / 3 else "within bound" if s <= bound else "UNRESOLVED"
            print(f"  {m:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {bound:6.3f}  {status}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
