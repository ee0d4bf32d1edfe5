"""Command-line frontend: run verification pipelines and emit JSON reports.

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 on usage or file errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import product

import numpy as np

from . import io as cio
from .algebra import verify_hopf_axioms, verify_star_axioms
from .cg import (_character_report, _occurrences, _rule_details, _selection_rules,
                 _triple_haar_gaps, solve_cg_systems)
from .corep import _CERTIFICATES, _certificate, _schur_report, identity_corep, irrep_table
from .errors import CqglabError
from .groups import _BUILTINS, build_function_algebra, build_group_algebra, builtin_algebras
from .haar import certify_haar, solve_haar, verify_haar_lemmas
from .homspace import (build_coset_subalgebra, restricted_coaction_report,
                       solve_restricted_basis_functions, verify_coideal)
from .regular import (canonical_basis_functions, dual_action_crosscheck, product_coaction_check,
                      verify_projection_identities)
from .report import SUMMARY_CHECKS, Report
from .tensor_ops import (VARIANTS, TensorOperatorFamily, check_families,
                         multiplication_family)
from .wigner_eckart import _cg_order, _factorize_table


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


def _context(spec, tol):
    """The Gram matrices ``solve_haar`` certified and the irrep table, which carries the
    run's one Haar functional."""
    h = solve_haar(spec, tol)
    return h._grams, irrep_table(spec, h, h._grams.gram_right)


def _cmd_validate(args) -> list[Report]:
    spec = _load_source(args)[0]
    return [verify_hopf_axioms(spec, args.tolerance),
            verify_star_axioms(spec, args.tolerance)]


def _cmd_haar(args) -> list[Report]:
    spec = _load_source(args)[0]
    h = solve_haar(spec, args.tolerance)
    return [certify_haar(h, args.tolerance), verify_haar_lemmas(h, args.tolerance)]


def _cmd_irreps(args) -> list[Report]:
    spec = _load_source(args)[0]
    _, table = _context(spec, args.tolerance)
    summary = Report(f"irreducibles [{spec.label}]",
                     meta={"dims": table.dims(), "multiplicities": list(table.multiplicities)})
    total = sum(d * m for d, m in zip(table.dims(), table.multiplicities))
    summary.add("blocks fill the regular comodule", float(abs(total - spec.dim)), 0.5)
    reports = [summary]
    for pi, residuals in zip(table, table.residuals):
        reports += [_certificate(pi, residuals, which, args.tolerance) for which in _CERTIFICATES]
    pairs = [(i, j) for i in range(len(table)) for j in range(i, len(table))]
    reports.append(_schur_report(table.irreps, pairs, table.haar, args.tolerance))
    reports.append(_character_report(table.characters, table.labels, pairs, table.haar,
                                     args.tolerance))
    for side in ("R", "L"):
        reports.append(verify_projection_identities(table, side, args.tolerance))
        reports.append(product_coaction_check(spec, side, args.tolerance))
    reports.append(dual_action_crosscheck(spec, args.tolerance))
    return reports


def _cmd_cg(args) -> list[Report]:
    spec = _load_source(args)[0]
    _, table = _context(spec, args.tolerance)
    labels = _pick_labels(table, [args.p, args.q]) or list(table.labels)
    targets = [table[r] for r in _pick_labels(table, [args.r]) or table.labels]
    systems = _cg_systems(table, (labels, labels))
    factors = [table[label] for label in labels]
    gaps = _triple_haar_gaps(factors, factors, targets, systems, table.haar)
    t = args.tolerance * spec.magnitude
    r_labels = [pi_r.label for pi_r in targets]
    pairs = list(product(labels, labels))
    orders = ("p,q", "q,p")
    # [pair, order, target]: the (p,q) order reads the (p, q) system, the (q,p) order (q, p)
    keys = (pairs, [(q, p) for p, q in pairs])
    values = np.stack([[gaps[key] for key in ordered] for ordered in keys], axis=1)
    occurs = np.zeros(values.shape, dtype=bool)
    for o, ordered in enumerate(keys):
        w, r, _, _ = _occurrences([systems[key] for key in ordered], r_labels)
        occurs[w, o, r] = True
    absent, worst, rule = _selection_rules(values, occurs)
    # each pair's occurring targets, target-major, then a selection rule per order
    pair, target, order = np.nonzero(occurs.swapaxes(1, 2))
    found = [f"triple haar {r_labels[r]} ({orders[o]}) order"
             for r, o in zip(target.tolist(), order.tolist())]
    found_values = values[pair, order, target].tolist()
    reports, start = [], 0
    for i, (pl, ql) in enumerate(pairs):
        system = systems[pl, ql]
        end = start + int(occurs[i].sum())
        rules = [o for o in (0, 1) if absent[i, o]]
        rep = Report(f"cg [{pl} x {ql}]", meta={"multiplicities": dict(system.multiplicities)})
        rep.extend(["block diagonalization", *found[start:end],
                    *(f"selection rule ({orders[o]}) order" for o in rules)],
                   [system.block_residual, *found_values[start:end], *rule[i, rules]], t,
                   [{} for _ in range(1 + end - start)]
                   + [_rule_details(int(absent[i, o]), r_labels[worst[i, o]], rule[i, o], t)
                      for o in rules])
        reports.append(rep)
        start = end
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
    spec = _load_source(args)[0]
    _, table = _context(spec, args.tolerance)
    labels = _pick_labels(table, [args.q]) or list(table.labels)
    reports = [Report(f"identity operator [{spec.label}]")]
    reports += [Report(f"multiplication families [{ql}]") for ql in labels]
    ident = identity_corep(spec)
    bsets = {side: [canonical_basis_functions(table[ql], side) for ql in labels]
             for side in ("R", "L")}
    for kind, side in VARIANTS:
        # the identity operator and every irrep's multiplication family, checked as one stack
        fams = [TensorOperatorFamily(ident, kind, side, np.eye(spec.dim)[None, :, :])]
        fams += [multiplication_family(bset, kind) for bset in bsets[side]]
        names = [f"identity {kind}-{side}"] + [f"{kind}-{side}"] * len(labels)
        for rep, name, residual in zip(reports, names, check_families(fams, table)):
            rep.add(name, residual, args.tolerance * spec.magnitude ** 2)
    # the residuals are kappa times the ones in the table's Peter-Weyl basis P
    context = table._peter_weyl
    reports[0].meta["peter_weyl"] = {"kappa": context.kappa(), "cond": context.cond}
    return reports


def _cg_systems(table, *products):
    """The CG systems of every label pair in the ``(firsts, seconds)`` products,
    keyed ``(a, b)``: one :func:`solve_cg_systems` call per distinct product."""
    systems = {}
    for firsts, seconds in dict.fromkeys((tuple(a), tuple(b)) for a, b in products):
        systems.update(solve_cg_systems([table[a] for a in firsts],
                                        [table[b] for b in seconds], table))
    return systems


def _cmd_wigner_eckart(args) -> list[Report]:
    spec = _load_source(args)[0]
    grams, table = _context(spec, args.tolerance)
    p_labels = _pick_labels(table, [args.p]) or list(table.labels)
    q_labels = _pick_labels(table, [args.q]) or list(table.labels)
    r_labels = _pick_labels(table, [args.r]) or list(table.labels)
    sides = [args.side] if args.side else ["R", "L"]
    kinds = [args.kind] if args.kind else ["ordinary", "twisted"]
    systems = _cg_systems(table, *[_cg_order(kind, p_labels, q_labels) for kind in kinds])
    tables = []  # one per (side, kind), all factorized in one pass
    for side in sides:
        used = list(dict.fromkeys(p_labels + q_labels + r_labels))
        bsets = {label: canonical_basis_functions(table[label], side) for label in used}
        tables += [([bsets[rl] for rl in r_labels],
                    [multiplication_family(bsets[ql], kind) for ql in q_labels],
                    [bsets[pl] for pl in p_labels], grams.gram(side),
                    f"wigner-eckart [{side},{kind}]") for kind in kinds]
    return _factorize_table(tables, systems, args.tolerance)


def _cmd_homspace(args) -> list[Report]:
    spec, group = _load_source(args)
    if group is None:
        raise CqglabError("homspace needs --group (or --builtin) with --subgroup")
    try:
        subgroup = [int(x) for x in args.subgroup.split(",")] if args.subgroup else [0]
    except ValueError:
        raise CqglabError(f"--subgroup takes comma-separated element indices, "
                          f"got {args.subgroup!r}") from None
    grams, table = _context(spec, args.tolerance)
    return _coideal_reports(build_coset_subalgebra(group, subgroup, args.side or "L", grams),
                            table, args.tolerance)


def _coideal_reports(coideal, table, tol) -> list[Report]:
    """``homspace``'s reports on B: axioms, coaction, basis functions, Wigner-Eckart tables."""
    reports = [verify_coideal(coideal, tol), restricted_coaction_report(coideal, table.haar, tol)]
    solutions = solve_restricted_basis_functions(coideal, table)
    reports.append(Report(f"restricted basis functions [{coideal.label}]",
                          meta={"solution_dims": {r: len(s) for r, s in solutions.items()}}))
    sets = [bset for sols in solutions.values() for bset in sols]  # each a target, source, family
    used = list(dict.fromkeys(bset.corep.label for bset in sets))
    systems = _cg_systems(table, (used, used))
    return reports + _factorize_table(
        [(sets, [multiplication_family(bset, kind) for bset in sets], sets, np.eye(coideal.dim),
          f"restricted wigner-eckart [{coideal.label},{kind}]")
         for kind in ("ordinary", "twisted")], systems, tol)


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
        if not 0 < args.tolerance < float("inf"):  # nan fails both comparisons
            raise CqglabError("--tolerance must be a positive finite number")
        if args.format == "csv" and not args.output:
            raise CqglabError("--format csv writes a file: give --output")
        reports = _COMMANDS[args.command](args)
        if args.output and args.format == "csv":
            with open(args.output, "w", encoding="utf-8") as out:
                cio.report_to_csv(reports, out)
        elif args.output:
            cio.save_report(args.command, reports, args.tolerance, args.seed,
                            {k: v for k, v in vars(args).items()
                             if k not in ("command", "output", "format") and v is not None},
                            args.output)
    except (CqglabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # past SUMMARY_CHECKS checks in all, every report prints only its verdict and failures
    brief = sum(len(rep._names) for rep in reports) > SUMMARY_CHECKS
    for rep in reports:
        print(rep.summary(brief))
    passed = all(rep.passed for rep in reports)
    print("RESULT:", "PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
