"""Workload definitions: generated inputs, job lists and known answers.

A job is one CLI subcommand on one algebra, run in-process through
``cqglab.cli.main(argv)`` with ``--output <file>``, or one library pipeline
on one algebra.  A round is the workload's whole job list, run once.

Every verdict is checked against group theory, hard-coded here rather than
taken from the program: irrep dimensions per algebra, the fusion sum rule
``sum_r m_r d_r = d_p d_q``, the size ``n d`` of a tensor-operator solution
space, and "every certificate passes".
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

WORKLOADS = ("desk", "fusion", "ladder")

# Sorted irrep dimensions of each algebra.  For a function algebra C(G) these
# are the dimensions of the irreducible representations of G; a group algebra
# C[G] is cocommutative, so all of its irreducible corepresentations are the
# |G| one-dimensional group-likes.
IRREP_DIMS = {
    "C(Z2)": [1, 1],
    "C(Z3)": [1, 1, 1],
    "C(Z4)": [1, 1, 1, 1],
    "C[Z3]": [1, 1, 1],
    "C(S3)": [1, 1, 2],
    "C[S3]": [1] * 6,
    "C(D4)": [1, 1, 1, 1, 2],
    "C(D5)": [1, 1, 2, 2],
    "C(D6)": [1, 1, 1, 1, 2, 2],
    "C(A4)": [1, 1, 1, 3],
    "C[A4]": [1] * 12,
}

DESK_BUILTINS = ("C(Z2)", "C(Z3)", "C(Z4)", "C[Z3]", "C(S3)", "C[S3]")
DESK_COMMANDS = ("validate", "haar", "irreps", "cg", "tensor-ops", "wigner-eckart")
DESK_PASSES = 5
FUSION_COMMANDS = ("irreps", "cg", "tensor-ops", "wigner-eckart")
LADDER_ALGEBRAS = ("C(D4)", "C(D5)", "C(A4)")

# Typical seconds per round when the benchmark was written (2-vCPU VM, one
# BLAS thread).  A run makes as many rounds as fit in ``--seconds`` at these
# speeds, so every version of the program does the same work in a run.
ROUND_S = {"desk": 5.0, "fusion": 15.0, "ladder": 28.0}


@dataclass(frozen=True)
class Job:
    """One unit of timed work.  ``argv`` is set for CLI jobs, ``group`` for pipelines."""

    name: str
    algebra: str
    argv: tuple[str, ...] = ()
    group: str = ""


# ---------------------------------------------------------------------------
# generated group tables
# ---------------------------------------------------------------------------

def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[x]] for x in range(len(q)))


def _closure(generators: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    ident = tuple(range(len(generators[0])))
    elems, frontier = {ident}, [ident]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = _compose(p, g)
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    return sorted(elems)  # the identity sorts first


def dihedral(k: int) -> list[tuple[int, ...]]:
    """The dihedral group of order 2k as permutations of the k-gon's vertices."""
    rotation = tuple((i + 1) % k for i in range(k))
    reflection = tuple((-i) % k for i in range(k))
    return _closure([rotation, reflection])


def alternating4() -> list[tuple[int, ...]]:
    """A4: the even permutations of four letters."""
    def even(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0
    return [p for p in sorted(permutations(range(4))) if even(p)]


GROUPS = {"D4": lambda: dihedral(4), "D5": lambda: dihedral(5),
          "D6": lambda: dihedral(6), "A4": alternating4}


def element_labels(order: int, seed: int) -> list[int]:
    """New index of each element: the identity stays at 0, the rest are shuffled by ``seed``.

    Relabelling permutes the algebra's basis, so every invariant answer
    (dimensions, multiplicities, fusion rules) is unchanged while the
    structure constants the program sees differ from seed to seed.
    """
    rest = list(range(1, order))
    random.Random(seed).shuffle(rest)
    return [0] + rest


def group_table(elems: list[tuple[int, ...]], labels: list[int]) -> list[list[int]]:
    """Multiplication table of ``elems`` with element ``i`` renamed ``labels[i]``."""
    index = {p: i for i, p in enumerate(elems)}
    table = [[0] * len(elems) for _ in elems]
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[labels[i]][labels[j]] = labels[index[_compose(p, q)]]
    return table


def write_group(name: str, seed: int, workdir: Path) -> tuple[Path, list[int]]:
    """Write group ``name``, relabelled by ``seed``, as a ``cqglab/group-v1`` file.

    Returns the path and the new index of each element in sorted order.
    """
    elems = GROUPS[name]()
    labels = element_labels(len(elems), seed)
    path = workdir / f"{name}.json"
    payload = {"schema": "cqglab/group-v1", "order": len(elems),
               "table": group_table(elems, labels)}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path, labels


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's input files under ``workdir`` and return one round of jobs."""
    s = ["--seed", str(seed)]
    jobs: list[Job] = []
    if workload == "desk":
        one_pass = [Job(f"{cmd} {label}", label, (cmd, "--builtin", label, *s))
                    for cmd in DESK_COMMANDS for label in DESK_BUILTINS]
        one_pass.append(Job("demo", "", ("demo", *s)))
        for side in ("L", "R"):
            one_pass.append(Job(f"homspace C(S3) {side}", "C(S3)",
                                ("homspace", "--builtin", "C(S3)", "--subgroup", "0,1",
                                 "--side", side, *s)))
        jobs = one_pass * DESK_PASSES
    elif workload == "fusion":
        d6_path, d6_labels = write_group("D6", seed, workdir)
        d6, a4 = str(d6_path), str(write_group("A4", seed, workdir)[0])
        for cmd in FUSION_COMMANDS:
            jobs.append(Job(f"{cmd} C(D6)", "C(D6)", (cmd, "--group", d6, *s)))
        # element 2 of D6 in sorted order is a reflection: {e, 2} is a subgroup
        sub = f"0,{d6_labels[2]}"
        jobs.append(Job("homspace C(D6) L", "C(D6)",
                        ("homspace", "--group", d6, "--subgroup", sub, "--side", "L", *s)))
        for cmd in FUSION_COMMANDS:
            jobs.append(Job(f"{cmd} C[A4]", "C[A4]",
                            (cmd, "--group", a4, "--construction", "group", *s)))
    elif workload == "ladder":
        for label in LADDER_ALGEBRAS:
            path, _ = write_group(label[2:4], seed, workdir)
            jobs.append(Job(f"pipeline {label}", label, group=str(path)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


# ---------------------------------------------------------------------------
# the library pipeline
# ---------------------------------------------------------------------------

def pipeline(cq, group_path: str, seed: int) -> dict:
    """The full library pipeline on the function algebra of one group file.

    ``cq`` is the imported ``cqglab`` package; every call goes through its
    namespaces at call time, so installed trace wrappers see it.
    """
    alg = cq.build_function_algebra(cq.io.load_group(group_path))
    hopf = cq.verify_hopf_axioms(alg)
    star = cq.verify_star_axioms(alg)
    h = cq.solve_haar(alg)
    grams = cq.gram_matrices(alg, h)
    table = cq.irrep_table(alg, h, grams.gram_right, seed=seed)
    systems = {(p, q): cq.solve_cg(table[p], table[q], table, h)
               for p in table.labels for q in table.labels}
    big = max(table, key=lambda pi: pi.dim)
    families = cq.solve_family_space(big, "ordinary", "R")
    phis = cq.canonical_basis_functions(big, "R", 0)
    fam = cq.multiplication_family(phis, "ordinary")
    we = cq.verify_wigner_eckart(phis, fam, phis, systems[big.label, big.label],
                                 big.F, grams.gram("R"))
    return {
        "n": alg.dim,
        "dims": table.dims(),
        "multiplicities": list(table.multiplicities),
        "fusion": {f"{p} x {q}": dict(sorted(sys_pq.multiplicities.items()))
                   for (p, q), sys_pq in systems.items()},
        "largest": big.dim,
        "families": len(families),
        "passed": {"hopf": hopf.passed, "star": star.passed, "wigner-eckart": we.passed},
    }


# ---------------------------------------------------------------------------
# known-answer checks
# ---------------------------------------------------------------------------

def _fusion_mismatches(algebra: str, pairs: dict[str, dict[str, int]]) -> list[str]:
    """Sum rule on each ``"p x q" -> {r: m_r}``, and one 1-dim irrep per pair for C[G]."""
    dims = IRREP_DIMS[algebra]
    dim_of = {f"p{i}": d for i, d in enumerate(dims)}
    bad = []
    for pair, mults in pairs.items():
        p, q = pair.split(" x ")
        if sum(m * dim_of[r] for r, m in mults.items()) != dim_of[p] * dim_of[q]:
            bad.append(f"{algebra} {pair}: sum rule fails for {mults}")
        if algebra.startswith("C[") and list(mults.values()) != [1]:
            bad.append(f"{algebra} {pair}: expected exactly one 1-dim irrep, got {mults}")
    return bad


def check_cli_report(job: Job, payload: dict) -> list[str]:
    """Known-answer checks on one CLI ``cqglab/report-v1`` payload."""
    bad = [] if payload.get("passed") is True else [f"{job.name}: report not passed"]
    for rep in payload.get("reports", []):
        title = rep.get("title", "")
        if title.startswith("irreducibles ") and job.algebra:
            meta = rep.get("meta", {})
            if sorted(meta.get("dims", [])) != IRREP_DIMS[job.algebra]:
                bad.append(f"{job.name}: dims {meta.get('dims')}")
            # each irrep occurs in the regular comodule as often as its dimension
            if meta.get("multiplicities") != meta.get("dims"):
                bad.append(f"{job.name}: multiplicities {meta.get('multiplicities')}")
        if title.startswith("cg [") and job.algebra:
            pair = title[len("cg ["):-1]
            bad.extend(_fusion_mismatches(job.algebra, {pair: rep["meta"]["multiplicities"]}))
    return bad


def check_pipeline(job: Job, result: dict) -> list[str]:
    """Known-answer checks on one library pipeline result."""
    algebra, bad = job.algebra, []
    if sorted(result["dims"]) != IRREP_DIMS[algebra]:
        bad.append(f"{job.name}: dims {result['dims']}")
    if result["multiplicities"] != result["dims"]:
        bad.append(f"{job.name}: multiplicities {result['multiplicities']}")
    bad.extend(_fusion_mismatches(algebra, result["fusion"]))
    # End(A) is n copies of the regular comodule, so an irrep of dimension d
    # has n * d independent tensor-operator families
    if result["families"] != result["n"] * max(IRREP_DIMS[algebra]):
        bad.append(f"{job.name}: {result['families']} tensor-operator families")
    bad.extend(f"{job.name}: {what} certificate failed"
               for what, ok in result["passed"].items() if not ok)
    return bad
