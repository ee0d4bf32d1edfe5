"""Time the spec-only kernels, three CLI subcommands and the benchmark workloads, checkout
against checkout.

Three kinds of cell, each timed in fresh child processes with one BLAS thread and a
4 GiB address-space cap on the child, the checkouts alternating within each repeat:

* ``kernels``: one kernel on one algebra per process.  The child builds the
  algebra (and, for ``solve_family_space``, its Haar functional, Gram matrices
  and irrep table) untimed, warms the kernel up on C(S3), then times one call
  and reports the peak RSS (``ru_maxrss``) before and after it.
* ``cli``: one ``cqglab`` subcommand with ``--output`` on a ``--group`` file, timed
  from outside as the child's whole life (interpreter start included), with the
  child's own ``ru_maxrss`` at exit.  ``validate`` runs on S4 and A5, ``irreps`` on A5,
  ``tensor-ops`` on S4, A5 and S5, and ``homspace --subgroup 0,1`` (an order-2
  subgroup) on C(S4) and C(S5) (``CLI_CELLS``, ``CLI_ARGS``).
* ``--workload``: ``perfbench/run.py --seconds 25 --trace 0`` of each checkout, one
  run per seed and checkout, the order flipping from seed to seed; the three
  end-to-end metrics are kept per run, with medians, quartiles and the number of
  seeds on which the second checkout read lower.

    python scripts/bench_real_structure.py --src parent=/path/to/old --src change=. \\
        --repeats 3 --workload ladder=41-52 --out BENCH_real_structure.json
    python scripts/bench_real_structure.py --src parent=/path/to/old --src change=. \\
        --skip kernels --command tensor-ops --out BENCH_tensor_ops.json
    python scripts/bench_real_structure.py --src parent=/path/to/old --src change=. \
        --skip kernels --algebra 'C(S5)' --command homspace --out homspace.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from itertools import permutations
from pathlib import Path
from statistics import median, quantiles

ALGEBRAS = ("C(S4)", "C[S4]", "C(A5)", "C[A5]", "C(S5)", "C[S5]")
KERNEL_ALGEBRAS = ALGEBRAS[:4]
KERNELS = ("verify_hopf_axioms", "verify_star_axioms", "product_coaction_check R",
           "product_coaction_check L", "solve_family_space")
CLI_CELLS = {"validate": ("C(S4)", "C(A5)", "C[A5]"), "irreps": ("C(A5)", "C[A5]"),
             "tensor-ops": ALGEBRAS, "homspace": ("C(S4)", "C(S5)")}
CLI_ARGS = {"homspace": ["--subgroup", "0,1"]}  # elements 0 and 1: e and a transposition
CAP_BYTES = 4 << 30
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

KERNEL_CHILD = r"""
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))
sys.path.insert(0, {src!r})
from cqglab import io as cio
from cqglab.algebra import verify_hopf_axioms, verify_star_axioms
from cqglab.corep import irrep_table
from cqglab.groups import build_function_algebra, build_group_algebra, builtin_algebras
from cqglab.haar import gram_matrices, solve_haar
from cqglab.regular import product_coaction_check
from cqglab.tensor_ops import solve_family_space

def prepare(kernel, alg):
    if kernel == "verify_hopf_axioms":
        return lambda: verify_hopf_axioms(alg)
    if kernel == "verify_star_axioms":
        return lambda: verify_star_axioms(alg)
    if kernel.startswith("product_coaction_check"):
        return lambda: product_coaction_check(alg, kernel[-1])
    h = solve_haar(alg)
    big = max(irrep_table(alg, h, gram_matrices(alg, h).gram_right), key=lambda pi: pi.dim)
    return lambda: solve_family_space(big, "ordinary", "R")

kernel = {kernel!r}
build = build_function_algebra if {function} else build_group_algebra
alg = build(cio.load_group({group!r}))
prepare(kernel, builtin_algebras()["C(S3)"])()
call = prepare(kernel, alg)
rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
start = time.perf_counter()
call()
seconds = time.perf_counter() - start
rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({{"n": alg.dim, "s": seconds, "setup_peak_rss_mb": rss0, "peak_rss_mb": rss1}}))
"""

CLI_CHILD = r"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))
sys.path.insert(0, {src!r})
import contextlib, io
from cqglab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(json.dumps({{"exit": code,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
"""


def _even(p: tuple[int, ...]) -> bool:
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2 == 0


def write_group(name: str, folder: Path) -> Path:
    """The ``cqglab/group-v1`` file of S4, A5 or S5 (sorted permutations, identity first)."""
    letters = int(name[1])
    elems = sorted(permutations(range(letters)))
    if name[0] == "A":
        elems = [p for p in elems if _even(p)]
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(p[x] for x in q)] for q in elems] for p in elems]
    path = folder / f"{name}.json"
    path.write_text(json.dumps({"schema": "cqglab/group-v1", "order": len(elems),
                                "table": table}), encoding="utf-8")
    return path


def _run(code: str) -> tuple[dict, float]:
    """Run ``code`` in a fresh child; its last stdout line as JSON, and its wall time."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, **ENV},
                         capture_output=True, text=True)
    wall = time.perf_counter() - start
    if out.returncode:
        return {"error": out.stderr.strip().splitlines()[-1:]}, wall
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def kernel_cell(src: str, algebra: str, kernel: str, group: Path) -> dict:
    return _run(KERNEL_CHILD.format(cap=CAP_BYTES, src=src, kernel=kernel, group=str(group),
                                    function=algebra.startswith("C(")))[0]


def cli_cell(src: str, algebra: str, command: str, group: Path, out: Path) -> dict:
    argv = [command, "--group", str(group), "--output", str(out), *CLI_ARGS.get(command, [])]
    if algebra.startswith("C["):
        argv += ["--construction", "group"]
    got, wall = _run(CLI_CHILD.format(cap=CAP_BYTES, src=src, argv=argv))
    return got if "error" in got else {**got, "s": wall}


def perfbench_cell(checkout: str, workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                          str(seed), "--seconds", "25", "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": out.stderr.strip().splitlines()[-1:]}
    return {"failed": result["failed"], "correct": result["correct"],
            **{name: metric["value"] for name, metric in result["metrics"].items()}}


def _summary(runs: list[dict], keys: tuple[str, ...]) -> dict:
    ok = [run for run in runs if "error" not in run]
    if not ok:
        return {"runs": runs}
    out = {f"{key}_median": round(median(run[key] for run in ok), 5) for key in keys}
    out[f"{keys[0]}_runs"] = [round(run[keys[0]], 5) for run in ok]
    out["errors"] = len(runs) - len(ok)
    if "exit" in ok[0]:  # a CLI cell: a failed check (1) or a refused input (2) is no error
        out["exits"] = [run["exit"] for run in ok]
    return out


def _alternating(checkouts: dict[str, str], repeats: int, cell) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {version: [] for version in checkouts}
    for rep in range(repeats):
        for version in (list(checkouts) if rep % 2 == 0 else list(checkouts)[::-1]):
            runs[version].append(cell(version, rep))
            print(version, runs[version][-1], file=sys.stderr, flush=True)
    return runs


def workload_pairs(checkouts: dict[str, str], workload: str, seeds: list[int]) -> dict:
    runs = _alternating(checkouts, len(seeds),
                        lambda version, rep: perfbench_cell(checkouts[version], workload,
                                                            seeds[rep]))
    first, second = list(checkouts)[:2]
    out: dict = {"seeds": seeds, "order": f"{first} first on even repeats"}
    for metric in ("wall_norm_s", "peak_rss_mb", "setup_s"):
        cols = {version: [round(run[metric], 5) for run in got if metric in run]
                for version, got in runs.items()}
        row: dict = dict(cols)
        for version, vals in cols.items():
            row[f"{version}_median"] = round(median(vals), 5)
            row[f"{version}_quartiles"] = [round(q, 5) for q in quantiles(vals, n=4)[::2]]
        row[f"{second}_lower_in"] = (f"{sum(b < a for a, b in zip(row[first], row[second]))} "
                                     f"of {len(seeds)} pairs")
        out[metric] = row
    out["failed"] = {version: sum(run.get("failed", 1) for run in got)
                     for version, got in runs.items()}
    out["every_verdict_correct"] = {version: all(run.get("correct") for run in got)
                                    for version, got in runs.items()}
    return out


def _cells(checkouts: dict[str, str], repeats: int, cell, keys: tuple[str, ...]) -> dict:
    return {version: _summary(got, keys)
            for version, got in _alternating(checkouts, repeats, cell).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="NAME=CHECKOUT, repeatable; checkouts alternate in each repeat")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--algebra", action="append", choices=ALGEBRAS,
                        help="repeatable; default every algebra (kernels skip S5)")
    parser.add_argument("--command", action="append", choices=tuple(CLI_CELLS),
                        help="repeatable; the CLI cells to run, default every one")
    parser.add_argument("--skip", action="append", default=[], choices=("kernels", "cli"))
    parser.add_argument("--workload", action="append", default=[],
                        help="NAME=FIRST-LAST, perfbench pairs on those seeds; repeatable")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = {name: os.path.abspath(path)
                 for name, path in (item.split("=", 1) for item in args.src)}
    sources = {name: os.path.join(path, "src") for name, path in checkouts.items()}
    results: dict = {"kernels": {}, "cli": {}}

    def save() -> None:  # after every cell group, so a failure later keeps what was measured
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        groups = {name: write_group(name, folder) for name in ("S4", "A5", "S5")}
        for algebra in args.algebra or ALGEBRAS:
            group = groups[algebra[2:4]]
            if "kernels" not in args.skip and algebra in KERNEL_ALGEBRAS:
                results["kernels"][algebra] = {kernel: _cells(
                    checkouts, args.repeats,
                    lambda version, rep: kernel_cell(sources[version], algebra, kernel, group),
                    ("s", "peak_rss_mb", "setup_peak_rss_mb")) for kernel in KERNELS}
            commands = [command for command in args.command or CLI_CELLS
                        if algebra in CLI_CELLS[command]]
            if "cli" not in args.skip and commands:
                results["cli"][algebra] = {command: _cells(
                    checkouts, args.repeats,
                    lambda version, rep: cli_cell(sources[version], algebra, command, group,
                                                  folder / "out.json"),
                    ("s", "peak_rss_mb")) for command in commands}
            save()
    for item in args.workload:
        name, span = item.split("=", 1)
        first, last = (int(x) for x in span.split("-"))
        results[f"perfbench {name}"] = workload_pairs(checkouts, name,
                                                      list(range(first, last + 1)))
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
