"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload fusion --seeds 1 10

runs ``run.py`` once per seed (1 to 10 here) with ``run_seconds`` from
``BENCHMARK.json`` and prints, for every metric, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the metric's bound.  The last line is the
same summary as one JSON object.  Use it to check that the benchmark is
steady, and to compare a change with its parent on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"),
                        required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    summary = {"workload": args.workload, "runs": len(runs),
               "correct": all(r["correct"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs), "metrics": {}}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread, "unit": first["unit"]}
        bound = bounds.get(name) if not args.trace else None
        print(f"{name:48s} median {median:14.6f} {first['unit']:6s} "
              f"q1 {q1:14.6f} q3 {q3:14.6f} spread {spread:7.4f}"
              + (f" bound {bound}" if bound is not None else ""))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
