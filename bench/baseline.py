"""Measure the baseline: ten seeds per workload, plus one traced run each.

    python3 bench/baseline.py [--out bench/baseline.json]

For every end-to-end metric it records the ten values, their median and
their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure ``BENCHMARK.json`` bounds.  The raw times and the kernel shift of
each run are kept next to them.  Takes about 20 minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run
import workloads

SEEDS = 10  # the spreads BENCHMARK.json bounds are over ten seeds


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent / "baseline.json"))
    args = parser.parse_args(argv)
    seconds = workloads.CONTRACT["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in workloads.CONTRACT["end_to_end"]}
    doc = {"command": "python3 bench/baseline.py", "run_seconds": seconds, "workloads": {}}
    for name in workloads.BENCHMARKED:
        workload = workloads.WORKLOADS[name]
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        for seed in range(SEEDS):
            record, lines = run.run_workload(workload, seed, seconds, trace=False)
            if not record["correct"]:
                print("\n".join(lines), file=sys.stderr)
                return 1
            for metric, m in record["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            for key, value in record["raw"].items():
                raw.setdefault(key, []).append(value)
            doc["stamp"] = record["stamp"]
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {v[-1]:.4f}" for k, v in values.items()), flush=True)
        traced, lines = run.run_workload(workload, 0, seconds, trace=True)
        doc["workloads"][name] = {
            "end_to_end": {
                metric: {
                    "median": statistics.median(v),
                    "spread": spread(v),
                    "bound": bounds[metric],
                    "values": v,
                }
                for metric, v in values.items()
            },
            "raw": {key: {"median": statistics.median(v), "spread": spread(v), "values": v} for key, v in raw.items()},
            "per_layer_seed0": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for metric, row in doc["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {row['median']:.4f} spread {row['spread']:.4f} (bound {row['bound']})")
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
