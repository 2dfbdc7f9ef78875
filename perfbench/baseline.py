"""Measure the benchmark's baseline and write it to perfbench/baseline.json.

For each workload: the median and quartiles of every end-to-end metric, and
of its raw wall-time counterpart, over timed runs at seeds 1..RUNS; the
per-layer metrics of one traced run; and the whole-corpus quality numbers
(AUC, error rate, certify verdicts) at corpus seeds 0 and 1.  Runs one
benchmark process at a time.  From the repository root:

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # timed runs per workload


def run(workload: str, *extra: str) -> tuple[dict, dict]:
    """One benchmark process; returns (full report, result line)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def traced(workload: str, seconds: str) -> dict:
    """Per-layer metrics of one traced run at seed 1."""
    report, result = run(workload, "--seed", "1", "--seconds", seconds, "--trace", "1")
    return {
        "seed": 1,
        "correct": result["correct"],
        "trace": report["trace"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    out_path = HERE / "baseline.json"
    baseline = {"workloads": {}}

    for w in spec["workloads"]:
        entry = {"why": w["why"]}
        values: dict = {}
        units: dict = {}
        for seed in range(1, RUNS + 1):
            report, result = run(w["name"], "--seed", str(seed), "--seconds", seconds)
            if not result["correct"]:
                raise SystemExit(f"{w['name']} seed {seed}: incorrect output")
            wall = {"wall." + k: m for k, m in report["wall_metrics"].items()}
            for name, m in {**result["metrics"], **wall}.items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            values.setdefault("machine_speed", []).append(report["machine_speed"])
            units["machine_speed"] = "ratio"
        entry["timed"] = {
            "seeds": list(range(1, RUNS + 1)),
            "run_seconds": spec["run_seconds"],
            "passes": report["passes"],
            "pass_datasets": report["pass_datasets"],
            "tail_percentile": report["latency"]["tail_percentile"],
            "tail_samples": report["latency"]["samples"],
            "samples_beyond_tail": report["latency"]["samples_beyond_tail"],
            "metrics": {
                k: {
                    "median": statistics.median(v),
                    "quartiles": statistics.quantiles(v, n=4)[::2],
                    "unit": units[k],
                }
                for k, v in values.items()
            },
        }
        entry["traced"] = traced(w["name"], seconds)
        entry["full_corpus"] = {}
        for corpus_seed in (0, 1):
            report, result = run(
                w["name"], "--seed", "0", "--seconds", seconds, "--full",
                "--corpus-seed", str(corpus_seed),
            )
            entry["full_corpus"][str(corpus_seed)] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "error_rate": report["error_rate"],
                "quality": report["quality"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
        baseline["environment"] = report["environment"]
        baseline["workloads"][w["name"]] = entry
        out_path.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"{w['name']}: done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
