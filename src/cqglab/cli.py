"""Command-line frontend: run verification pipelines and emit JSON reports.

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 on usage or file errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import io as cio
from .algebra import verify_hopf_axioms, verify_star_axioms
from .cg import _character_report, _triple_haar_gaps, solve_cg_systems
from .corep import _CERTIFICATES, _certificate, _schur_report, identity_corep, irrep_table
from .errors import CqglabError
from .groups import _BUILTINS, build_function_algebra, build_group_algebra, builtin_algebras
from .haar import certify_haar, gram_matrices, solve_haar, verify_haar_lemmas
from .homspace import (build_coset_subalgebra, restricted_coaction_report,
                       solve_restricted_basis_functions, verify_coideal)
from .regular import (canonical_basis_functions, product_coaction_check,
                      dual_action_crosscheck, verify_projection_identities)
from .report import Report
from .tensor_ops import (VARIANTS, TensorOperatorFamily, check_families,
                         multiplication_family)
from .wigner_eckart import _factorize_table


def _load_source(args) -> tuple["HopfAlgebraSpec", "GroupTable | None"]:
    """The spec named on the command line, and the group it is built from (read once)."""
    if args.algebra:
        return cio.load_algebra(args.algebra), None
    if args.group:
        build = build_function_algebra if args.construction == "function" else build_group_algebra
        group = cio.load_group(args.group)
    elif args.builtin:
        if args.builtin not in _BUILTINS:
            raise CqglabError(f"unknown builtin {args.builtin!r}; have {sorted(_BUILTINS)}")
        build, make = _BUILTINS[args.builtin]
        group = make()
    else:
        raise CqglabError("one of --algebra, --group, --builtin is required")
    return build(group), group


def _load_spec(args) -> "HopfAlgebraSpec":
    return _load_source(args)[0]


def _context(spec, tol, seed):
    h = solve_haar(spec, tol)
    grams = gram_matrices(spec, h, tol)
    table = irrep_table(spec, h, grams.gram_right, seed=seed, tol=max(tol, 1e-9))
    return h, grams, table


def _cmd_validate(args) -> list[Report]:
    spec = _load_spec(args)
    return [verify_hopf_axioms(spec, args.tolerance),
            verify_star_axioms(spec, args.tolerance)]


def _cmd_haar(args) -> list[Report]:
    spec = _load_spec(args)
    h = solve_haar(spec, args.tolerance)
    reports = [certify_haar(h, args.tolerance),
               verify_haar_lemmas(spec, h, args.tolerance)]
    gram_matrices(spec, h, args.tolerance)  # raises on positivity failure
    return reports


def _cmd_irreps(args) -> list[Report]:
    spec = _load_spec(args)
    h, grams, table = _context(spec, args.tolerance, args.seed)
    summary = Report(f"irreducibles [{spec.label}]",
                     meta={"dims": table.dims(), "multiplicities": table.multiplicities})
    total = sum(d * m for d, m in zip(table.dims(), table.multiplicities))
    summary.add("blocks fill the regular comodule", float(abs(total - spec.dim)), 0.5)
    reports = [summary]
    for pi, residuals in zip(table, table.residuals):
        reports += [_certificate(pi, residuals, which, args.tolerance) for which in _CERTIFICATES]
    pairs = [(i, j) for i in range(len(table)) for j in range(i, len(table))]
    reports.append(_schur_report(table.irreps, pairs, h, args.tolerance))
    reports.append(_character_report(table.characters, table.labels, pairs, h, args.tolerance))
    for side in ("R", "L"):
        reports.append(verify_projection_identities(table, side, h, args.tolerance))
        reports.append(product_coaction_check(spec, side, args.tolerance))
    reports.append(dual_action_crosscheck(spec))
    return reports


def _cmd_cg(args) -> list[Report]:
    spec = _load_spec(args)
    h, grams, table = _context(spec, args.tolerance, args.seed)
    labels = _pick_labels(table, [args.p, args.q]) or list(table.labels)
    targets = [table[r] for r in _pick_labels(table, [args.r]) or table.labels]
    systems = _cg_systems(table, h, (labels, labels))
    factors = [table[label] for label in labels]
    gaps = _triple_haar_gaps(factors, factors, targets, systems, h)
    t = args.tolerance * spec.magnitude
    names = [f"triple haar {pi_r.label} ({order}) order"
             for pi_r in targets for order in ("p,q", "q,p")]
    reports = []
    for pl, ql in product(labels, labels):
        system = systems[pl, ql]
        rep = Report(f"cg [{pl} x {ql}]", meta={"multiplicities": system.multiplicities})
        rep.add("block diagonalization", system.block_residual, t)
        rep.extend(names, np.column_stack([gaps[pl, ql], gaps[ql, pl]]), t)
        reports.append(rep)
    return reports


def _pick_labels(table, requested) -> list[str] | None:
    chosen = [r for r in requested if r]
    if not chosen:
        return None
    try:
        return list(dict.fromkeys(table.labels[table.index_of(r)] for r in chosen))  # each once
    except KeyError as exc:
        raise CqglabError(exc.args[0]) from None


def _cmd_tensor_ops(args) -> list[Report]:
    spec = _load_spec(args)
    h, grams, table = _context(spec, args.tolerance, args.seed)
    labels = _pick_labels(table, [args.q]) or list(table.labels)
    reports = [Report(f"identity operator [{spec.label}]")]
    reports += [Report(f"multiplication families [{ql}]") for ql in labels]
    ident = identity_corep(spec)
    for kind, side in VARIANTS:
        # the identity operator and every irrep's multiplication family, checked as one stack
        fams = [TensorOperatorFamily(ident, kind, side, np.eye(spec.dim)[None, :, :])]
        fams += [multiplication_family(canonical_basis_functions(table[ql], side, 0), kind)
                 for ql in labels]
        names = [f"identity {kind}-{side}"] + [f"{kind}-{side}"] * len(labels)
        for rep, name, residual in zip(reports, names, check_families(fams)):
            rep.add(name, residual, args.tolerance * spec.magnitude ** 2)
    return reports


def _cg_systems(table, h, *products):
    """The CG systems of every label pair in the ``(firsts, seconds)`` products,
    keyed ``(a, b)``: one :func:`solve_cg_systems` call per distinct product."""
    systems = {}
    for firsts, seconds in dict.fromkeys((tuple(a), tuple(b)) for a, b in products):
        systems.update(solve_cg_systems([table[a] for a in firsts],
                                        [table[b] for b in seconds], table, h))
    return systems


def _cmd_wigner_eckart(args) -> list[Report]:
    spec = _load_spec(args)
    h, grams, table = _context(spec, args.tolerance, args.seed)
    p_labels = _pick_labels(table, [args.p]) or list(table.labels)
    q_labels = _pick_labels(table, [args.q]) or list(table.labels)
    r_labels = _pick_labels(table, [args.r]) or list(table.labels)
    sides = [args.side] if args.side else ["R", "L"]
    kinds = [args.kind] if args.kind else ["ordinary", "twisted"]
    # ordinary families use the (q, p) systems, twisted ones the (p, q) systems
    systems = _cg_systems(table, h, *[(q_labels, p_labels) if kind == "ordinary"
                                      else (p_labels, q_labels) for kind in kinds])
    reports = []
    for side in sides:
        bsets = {lab: canonical_basis_functions(table[lab], side, 0)
                 for lab in dict.fromkeys(p_labels + q_labels + r_labels)}
        for kind in kinds:
            reports.append(_factorize_table(
                [bsets[rl] for rl in r_labels],
                [multiplication_family(bsets[ql], kind) for ql in q_labels],
                [bsets[pl] for pl in p_labels], systems, grams.gram(side), args.tolerance,
                f"wigner-eckart [{side},{kind}]"))
    return reports


def _cmd_homspace(args) -> list[Report]:
    spec, group = _load_source(args)
    if group is None:
        raise CqglabError("homspace needs --group (or --builtin) with --subgroup")
    if spec.label.startswith("C["):
        raise CqglabError(
            f"homspace builds coset subalgebras of a function algebra C(G), and "
            f"{spec.label!r} is a group algebra; use --construction function or a "
            f"'C(...)' built-in")
    try:
        subgroup = [int(x) for x in args.subgroup.split(",")] if args.subgroup else [0]
    except ValueError:
        raise CqglabError(f"--subgroup takes comma-separated element indices, "
                          f"got {args.subgroup!r}") from None
    side = args.side or "L"
    h, grams, table = _context(spec, args.tolerance, args.seed)
    coideal = build_coset_subalgebra(group, spec, subgroup, side, grams)
    reports = [verify_coideal(coideal, args.tolerance)]
    reports.append(restricted_coaction_report(coideal, h, args.tolerance))
    dims = Report(f"restricted basis functions [{coideal.label}]")
    sets = []  # every set is a target r, a source p and a family q
    for pi in table:
        sols = solve_restricted_basis_functions(pi, coideal)
        sets.extend(sols)
        dims.add(f"solution dim {pi.label}", 0.0, 1.0, dim=len(sols))
    reports.append(dims)
    used = list(dict.fromkeys(bset.corep.label for bset in sets))
    systems = _cg_systems(table, h, (used, used))
    for kind in ("ordinary", "twisted"):
        reports.append(_factorize_table(
            sets, [multiplication_family(bset, kind) for bset in sets], sets, systems,
            np.eye(coideal.dim), args.tolerance,
            f"restricted wigner-eckart [{coideal.label},{kind}]"))
    return reports


def _cmd_demo(args) -> list[Report]:
    reports = []
    for label, spec in builtin_algebras().items():
        reports.append(verify_hopf_axioms(spec, args.tolerance))
        reports.append(verify_star_axioms(spec, args.tolerance))
        h = solve_haar(spec, args.tolerance)
        reports.append(certify_haar(h, args.tolerance))
    return reports


_COMMANDS = {
    "validate": _cmd_validate,
    "haar": _cmd_haar,
    "irreps": _cmd_irreps,
    "cg": _cmd_cg,
    "tensor-ops": _cmd_tensor_ops,
    "wigner-eckart": _cmd_wigner_eckart,
    "homspace": _cmd_homspace,
    "demo": _cmd_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqglab",
        description="Verification pipelines for finite-dimensional compact "
                    "quantum group algebras given by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--algebra", help="algebra spec JSON file")
        p.add_argument("--group", help="group table JSON file")
        p.add_argument("--construction", choices=["function", "group"],
                       default="function",
                       help="which Hopf algebra to build from --group")
        p.add_argument("--builtin", help="built-in algebra label, e.g. 'C(S3)'")
        p.add_argument("--tolerance", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write the JSON report here")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        if name in ("cg", "wigner-eckart"):
            p.add_argument("--p", default=None)
            p.add_argument("--q", default=None)
            p.add_argument("--r", default=None)
        if name == "tensor-ops":
            p.add_argument("--q", default=None)
        if name in ("wigner-eckart", "homspace"):
            p.add_argument("--side", choices=["R", "L"], default=None)
        if name == "wigner-eckart":
            p.add_argument("--kind", choices=["ordinary", "twisted"], default=None)
        if name == "homspace":
            p.add_argument("--subgroup", default=None,
                           help="comma-separated element indices, e.g. '0,1'")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.format == "csv" and not args.output:
            raise CqglabError("--format csv writes a file: give --output")
        reports = _COMMANDS[args.command](args)
    except (CqglabError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = cio.report_payload(
        args.command, reports, args.tolerance, args.seed,
        inputs={k: v for k, v in vars(args).items()
                if k not in ("command", "output", "format") and v is not None})
    if args.output:
        if args.format == "csv":
            Path(args.output).write_text(cio.report_to_csv(payload), encoding="utf-8")
        else:
            cio.save_report(payload, args.output)
    for rep in reports:
        print(rep.summary())
    print("RESULT:", "PASS" if payload["passed"] else "FAIL")
    return 0 if payload["passed"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
