"""cqglab benchmark: end-to-end metrics per workload, or per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

``--workload all`` runs desk, fusion and ladder in turn.  Each workload runs
in a child process (``worker.py``) with single-threaded BLAS and a memory
cap; a job that raises, exits non-zero, runs out of time or out of memory is
counted as failed and the run goes on.  Set-up (imports, input files, a
warm-up on C(Z2)) is timed in several fresh processes and its median
reported, at the speed gauge's reference speed (see ``worker.SpeedGauge``).
Metric names and units come from ``BENCHMARK.json``: ``--trace 0`` reports
its ``end_to_end`` list and ``--trace 1`` its ``per_layer`` list.  The last
line of standard output is one JSON object; the lines before it give every
metric by name and unit, plus the failure and verdict accounting.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk", "fusion", "ladder")
SETUP_RUNS = 9          # set-up is measured this many times; the median is reported
SETUP_TIMEOUT_S = 5     # per set-up-only process
RUN_TIMEOUT_S = 150     # for the measuring process; the whole run stays under 180 s
MEMORY_CAP_BYTES = 4 << 30  # address-space cap of the child; the machine has 7 GB

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchmarkError(Exception):
    """The benchmark itself could not produce a result."""


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def _child(args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` with ``args``; return the JSON object it prints last."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env={**os.environ, **CHILD_ENV}, preexec_fn=_cap_memory,
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args[:2]} exceeded {timeout} s") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {args[:2]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workroot = HERE / "work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workroot))
    try:
        base = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
        setups = [_child([*base, "--setup-only"], SETUP_TIMEOUT_S)
                  for _ in range(SETUP_RUNS - 1)]
        result = _child([*base, "--seconds", str(seconds), "--trace", str(trace)],
                        RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result)
    result["metrics"]["setup_s"] = statistics.median(s["setup_norm_s"] for s in setups)
    result["metrics"]["setup_raw_s"] = statistics.median(s["setup_s"] for s in setups)
    return result


def report(workload: str, result: dict, metrics: list[dict], trace: int) -> dict:
    """Print the human-readable lines; return the contract's result object."""
    values = result["per_layer"] if trace else result["metrics"]
    out = {}
    for m in metrics:
        if m["name"] not in values:
            raise BenchmarkError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{workload:7s} {m['name']:48s} {values[m['name']]:14.6f} {m['unit']}")
    extra = result["metrics"]
    for name, unit in (("wall_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
                       ("fail_share", "share"), ("verdict_mismatches", "count"),
                       ("setup_raw_s", "s"), ("gauge_ms", "ms")):
        if name in extra and name not in out:
            print(f"{workload:7s} {name:48s} {extra[name]:14.6f} {unit}")
    print(f"{workload:7s} jobs {result['attempted']} in {result['rounds']} rounds of "
          f"{result['jobs_per_round']}; outcomes {result['outcomes']}")
    print(f"{workload:7s} round walls (traced, s): "
          + ", ".join(f"{'T' if t else 'U'} {w:.3f}" for t, w in result["round_walls"]))
    for line in result["mismatches"]:
        print(f"{workload:7s} verdict mismatch: {line}")
    return {"correct": result["verdict_mismatches"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cqglab" / "__init__.py").is_file():
        print(f"error: no cqglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = report(name, run_workload(name, args.seed, args.seconds,
                                                      args.trace), metrics, args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
