"""Child process of the benchmark: set up, run timed rounds, check every verdict.

``run.py`` starts this script under a memory cap and prints what it reports;
it is not meant to be run by hand.  The last line of standard output is one
JSON object.  With ``--setup-only`` the process stops after set-up.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402  (its import is part of set-up)
import cqglab  # noqa: E402
import cqglab.cli  # noqa: E402
import cqglab.io  # noqa: E402

import jobs  # noqa: E402
from tracer import Tracer  # noqa: E402

# A job running longer than this is stopped and counted as a timeout.  The
# slowest job when this benchmark was written (the C(A4) pipeline) took 20 to 25 s.
JOB_TIMEOUT_S = 60


class JobTimeout(Exception):
    """Raised in the job by SIGALRM when it exceeds ``JOB_TIMEOUT_S``."""


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


def set_up(workload: str, seed: int, workdir: Path) -> tuple[list[jobs.Job], float]:
    """Write the inputs and warm up on C(Z2); return the job list and set-up time."""
    job_list = jobs.make_inputs(workload, seed, workdir)
    z2 = workdir / "Z2.json"
    z2.write_text(json.dumps({"schema": "cqglab/group-v1", "order": 2,
                              "table": [[0, 1], [1, 0]]}), encoding="utf-8")
    jobs.pipeline(cqglab, str(z2), seed)
    with contextlib.redirect_stdout(io.StringIO()):
        cqglab.cli.main(["cg", "--group", str(z2), "--output", str(workdir / "warm.json")])
    return job_list, time.perf_counter() - STARTED


def run_job(job: jobs.Job, seed: int, out_path: Path, reported: set[str]):
    """Run one job; return ``(seconds, outcome, output)``.

    ``outcome`` is ``"ok"``, ``"exit <code>"``, ``"raised <Type>"``,
    ``"timeout"`` or ``"oom"``; ``output`` is the report file's bytes for a
    CLI job, the pipeline's summary for a library job, or ``None``.  The
    first traceback of each exception type goes to stderr and into
    ``reported``.
    """
    if job.argv:
        out_path.unlink(missing_ok=True)
        argv = [*job.argv, "--output", str(out_path)]
    output = None
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    start = time.perf_counter()
    try:
        if job.argv:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cqglab.cli.main(argv)
        else:
            output = jobs.pipeline(cqglab, job.group, seed)
            code = 0
        seconds = time.perf_counter() - start
        outcome = "ok" if code == 0 else f"exit {code}"
    except JobTimeout:
        seconds, outcome = time.perf_counter() - start, "timeout"
    except MemoryError:
        seconds, outcome = time.perf_counter() - start, "oom"
    except Exception as exc:  # a failed job is recorded and the run goes on
        seconds, outcome = time.perf_counter() - start, f"raised {type(exc).__name__}"
        if outcome not in reported:
            reported.add(outcome)
            print(f"{job.name}: {traceback.format_exc()}", file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if job.argv and out_path.exists():
        output = out_path.read_bytes()
    return seconds, outcome, output


class Verdicts:
    """Known-answer checks, plus identical output for the same (job, seed)."""

    def __init__(self) -> None:
        self.digests: dict[tuple, str] = {}
        self.mismatches: list[str] = []

    def check(self, job: jobs.Job, output) -> None:
        if output is None:
            return
        if job.argv:
            self.mismatches.extend(jobs.check_cli_report(job, json.loads(output)))
            blob = output
        else:
            self.mismatches.extend(jobs.check_pipeline(job, output))
            blob = json.dumps(output, sort_keys=True).encode()
        key = _job_key(job)
        digest = hashlib.sha256(blob).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            self.mismatches.append(f"{job.name}: output differs from an earlier run")


class SpeedGauge:
    """Times a fixed reference kernel between jobs, to put job times on one machine speed.

    The machine may be shared: load from outside it can slow every process
    in it by half, for seconds to minutes.  The gauge reads the kernel's time
    right before and right after each job.  The job's time, times
    ``REFERENCE_S`` over the mean of those two readings, is its time at the
    reference speed.  A reading is the mean over at least three runs of the
    kernel, and over at least ``SHARE`` of the job it follows, so that a long
    job is followed by a long reading.  The kernel is a pure-Python loop,
    small SVDs and einsums, and 96 x 96 matrix products, the kinds of work
    the jobs do.  It calls nothing in cqglab, so a change to the program
    cannot move it.
    """

    # a reading in a quiet period on the 2-vCPU machine of README.md, "Noise"
    REFERENCE_S = 0.00055
    SHARE = 0.02

    def __init__(self) -> None:
        rng = numpy.random.default_rng(0)
        self._small = rng.random((8, 8))
        self._square = rng.random((96, 96))
        self.read()  # warm-up
        self.readings = [self.read()]

    def _kernel(self) -> int:
        total = 0
        for i in range(3000):
            total += i * i
        for _ in range(10):
            numpy.linalg.svd(self._small)
            numpy.einsum("ij,jk->ik", self._small, self._small)
        for _ in range(6):
            self._square @ self._square
        return total

    def read(self, at_least: float = 0.0) -> float:
        """The kernel's mean time, over at least three runs and ``at_least`` seconds."""
        times: list[float] = []
        start = time.perf_counter()
        while len(times) < 3 or time.perf_counter() - start < at_least:
            begun = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - begun)
        return statistics.fmean(times)

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured, at the reference speed; takes a new reading."""
        before = self.readings[-1]
        self.readings.append(self.read(self.SHARE * seconds))
        return seconds * self.REFERENCE_S / ((before + self.readings[-1]) / 2)


def _job_key(job: jobs.Job) -> tuple:
    """Jobs with the same key do the same work."""
    return job.argv or (job.name,)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            job_list: list[jobs.Job], workdir: Path, gauge: SpeedGauge) -> dict:
    """Run the rounds that ``seconds`` buys at the workload's typical round time.

    Untraced runs time every round.  Traced runs alternate traced and
    untraced rounds, traced first so that peak-RSS rises land on the layers
    that cause them, and run at least one of each.

    ``wall_s`` is the median untraced round time.  ``wall_norm_s`` puts
    every untraced job time at the gauge's reference speed, takes each job's
    median over its repeats (the same argv, or the same pipeline) and sums
    those over one round.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if trace else None
    verdicts = Verdicts()
    out_path = workdir / "report.json"
    rounds: list[tuple[bool, float]] = []
    latencies: list[float] = []
    at_reference: dict[tuple, list[float]] = {}
    outcomes: dict[str, int] = {}
    job_names: dict[int, str] = {}
    reported: set[str] = set()
    n_rounds = max(2 if trace else 1, round(seconds / jobs.ROUND_S[workload]))
    for index in range(n_rounds):
        traced = trace and index % 2 == 0
        if traced:
            tracer.install()
        wall = 0.0
        for job in job_list:
            job_id = len(job_names)
            job_names[job_id] = job.name
            if traced:
                tracer.job = job_id
            took, outcome, output = run_job(job, seed, out_path, reported)
            scaled = gauge.scale(took)
            wall += took
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if not traced:
                latencies.append(took)
                at_reference.setdefault(_job_key(job), []).append(scaled)
            verdicts.check(job, output)
        if traced:
            tracer.uninstall()
        rounds.append((traced, wall))

    untraced = [w for t, w in rounds if not t]
    attempted = sum(outcomes.values())
    failed = attempted - outcomes.get("ok", 0)
    result = {
        "rounds": len(rounds),
        "round_walls": [[traced, wall] for traced, wall in rounds],
        "jobs_per_round": len(job_list),
        "attempted": attempted,
        "failed": failed,
        "outcomes": outcomes,
        "verdict_mismatches": len(verdicts.mismatches),
        "mismatches": verdicts.mismatches[:20],
        "metrics": {
            "wall_s": statistics.median(untraced),
            "wall_norm_s": sum(statistics.median(at_reference[_job_key(job)])
                               for job in job_list),
            "job_p50_ms": 1000 * statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_share": failed / attempted,
            "verdict_mismatches": len(verdicts.mismatches),
            "gauge_ms": 1000 * statistics.median(gauge.readings),
        },
    }
    if len(latencies) >= 100:
        result["metrics"]["job_p90_ms"] = 1000 * statistics.quantiles(latencies, n=10)[-1]
    if trace:
        traced_walls = [w for t, w in rounds if t]
        per_job = tracer.by_job()
        traced_wall = sum(traced_walls)
        traced_spanned = sum(row["spanned_s"] for row in per_job.values())
        layer = tracer.summarize(per=len(traced_walls))
        layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
        # share of traced job time outside every layer span: benchmark glue
        layer["trace.glue_share"] = 1.0 - traced_spanned / traced_wall
        if layer["trace.glue_share"] > 0.05:
            print(f"warning: layer spans cover only {traced_spanned:.3f} s of "
                  f"{traced_wall:.3f} s of traced job time", file=sys.stderr)
        result["per_layer"] = layer
        trace_file = HERE / "work" / f"trace-{workload}.json"
        trace_file.write_text(json.dumps({
            "workload": workload, "seed": seed, "traced_rounds": len(traced_walls),
            "per_layer": layer,
            "per_job": {f"{i} {job_names[i]}": row for i, row in sorted(per_job.items())},
            "span_fields": ["name", "job", "parent", "cells", "start", "end",
                            "peak_rss0_kb", "peak_rss1_kb", "error"],
            "spans": tracer.spans,
        }), encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    job_list, setup_s = set_up(args.workload, args.seed, args.workdir)
    gauge = SpeedGauge()
    # set-up at the reference speed, by the reading taken right after it
    result = {"setup_s": setup_s,
              "setup_norm_s": setup_s * gauge.REFERENCE_S / gauge.readings[-1]}
    if not args.setup_only:
        result.update(measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              job_list, args.workdir, gauge))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
