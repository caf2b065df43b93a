"""Run the benchmark over seeds 1-10 and report the spread of each metric.

    python3 perfbench/spread.py [--traced] [--out perfbench/baseline.json]

Each (workload of BENCHMARK.json, seed) is one `perfbench/run.py` process with the
``run_seconds`` of BENCHMARK.json. For every end-to-end metric the spread is
(Q3 - Q1) / median over the seeds, with quartiles from
``statistics.quantiles(values, n=4)``; a metric is steady when its spread is
below a third of its bound. ``--traced`` adds one traced run per workload
(first seed) for the per-layer figures. ``--out`` writes every run's result
and info line, so the file can serve as a recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    report: dict = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            info, result = invoke(workload, seed, seconds, 0)
            report.setdefault("metadata", info["metadata"])
            runs.append({"seed": seed, "result": result, "info": info})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / med, "bound": m["bound"],
                                  "steady": (q3 - q1) / med < m["bound"] / 3}
            print(f"  {m['name']}: median {med:.4g}, spread {(q3 - q1) / med:.4f} "
                  f"(bound {m['bound']})", flush=True)
        entry = {"summary": summary, "runs": runs}
        if args.traced:
            info, result = invoke(workload, SEEDS[0], seconds, 1)
            entry["traced"] = {"seed": SEEDS[0], "result": result, "info": info}
        report["workloads"][workload] = entry

    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
