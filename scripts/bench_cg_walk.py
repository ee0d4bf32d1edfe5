"""Time a per-pair ``solve_cg`` walk over every ordered pair of an irrep table.

Each (algebra, checkout) cell runs in a fresh child process with one BLAS
thread and a 4 GiB address-space cap.  The child builds the algebra, its Haar
functional, Gram matrices and irrep table (untimed), warms up with a walk over
C(S3)'s table, then calls ``solve_cg`` on
every ordered pair of the table's irreps and reports the walk's wall time, the
first call's time and the process's peak RSS (``ru_maxrss``) before and after
the walk.  Checkouts alternate within each repeat; the medians go to ``--out``.

    python scripts/bench_cg_walk.py --src parent=/path/to/old --src change=. \\
        --repeats 3 --out BENCH_cg_walk.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from itertools import permutations
from statistics import median

ALGEBRAS = ("C(D4)", "C(D5)", "C(A4)", "C(D6)", "C[A4]", "C[S4]", "C[A5]", "C(S5)", "C[S5]")
CAP_BYTES = 4 << 30

CHILD = r"""
import json, resource, sys, time
from itertools import permutations
resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))
sys.path.insert(0, {src!r})
import numpy as np
from cqglab.cg import solve_cg
from cqglab.corep import irrep_table
from cqglab.groups import GroupTable, build_function_algebra, build_group_algebra
from cqglab.haar import gram_matrices, solve_haar

def group(elems):
    index = {{p: i for i, p in enumerate(elems)}}
    return GroupTable(len(elems), np.array([[index[tuple(p[x] for x in q)] for q in elems]
                                            for p in elems]))

def even(p):
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2 == 0

def dihedral(k):
    return sorted({{tuple((s * i + r) % k for i in range(k)) for r in range(k) for s in (1, -1)}})

name = {name!r}
family, letters = name[:2], name[2:-1]
if letters.startswith("D"):
    elems = dihedral(int(letters[1:]))
else:
    elems = sorted(permutations(range(int(letters[1:]))))
    if letters.startswith("A"):
        elems = [p for p in elems if even(p)]
build = build_function_algebra if family == "C(" else build_group_algebra
alg = build(group(elems))
h = solve_haar(alg)
table = irrep_table(alg, h, gram_matrices(alg, h).gram_right)
from cqglab.groups import builtin_algebras
warm = builtin_algebras()["C(S3)"]
warm_h = solve_haar(warm)
warm_table = irrep_table(warm, warm_h, gram_matrices(warm, warm_h).gram_right)
for p in warm_table:
    for q in warm_table:
        solve_cg(p, q, warm_table, warm_h)
rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
pairs = [(p, q) for p in table for q in table]
start = time.perf_counter()
solve_cg(*pairs[0], table, h)
first = time.perf_counter() - start
for p, q in pairs[1:]:
    solve_cg(p, q, table, h)
walk = time.perf_counter() - start
rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({{"n": alg.dim, "pairs": len(pairs), "walk_s": walk, "first_s": first,
                  "setup_peak_rss_mb": rss0, "peak_rss_mb": rss1}}))
"""


def run_cell(name: str, src: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = CHILD.format(cap=CAP_BYTES, src=os.path.abspath(os.path.join(src, "src")), name=name)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if out.returncode:
        return {"error": out.stderr.strip().splitlines()[-1:]}
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="NAME=CHECKOUT, repeatable; checkouts alternate in each repeat")
    parser.add_argument("--algebra", action="append", choices=ALGEBRAS,
                        help="repeatable; default every algebra")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = dict(item.split("=", 1) for item in args.src)
    results = {}
    for name in args.algebra or ALGEBRAS:
        runs = {version: [] for version in checkouts}
        for rep in range(args.repeats):
            order = list(checkouts) if rep % 2 == 0 else list(checkouts)[::-1]
            for version in order:
                runs[version].append(run_cell(name, checkouts[version]))
                print(name, version, runs[version][-1], file=sys.stderr, flush=True)
        cells = {}
        for version, got in runs.items():
            ok = [run for run in got if "error" not in run]
            cells[version] = {"runs": got} if not ok else {
                "n": ok[0]["n"], "pairs": ok[0]["pairs"],
                **{f"{key}_median": median(run[key] for run in ok)
                   for key in ("walk_s", "first_s", "setup_peak_rss_mb", "peak_rss_mb")},
                "walk_s": [round(run["walk_s"], 4) for run in ok],
                "errors": len(got) - len(ok)}
        results[name] = cells
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
