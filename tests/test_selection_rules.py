"""Selection rules: the targets that do not occur in a pair's CG system are one check.

The generalized Wigner-Eckart theorem makes every inner product
``(psi^r_l, Q^q_k phi^p_j)`` zero when r does not occur in the pair's product,
and the triple-product Haar identity makes ``h(pi^r* pi^p pi^q)`` zero.  So
``cqglab wigner-eckart`` writes, per (p, q) pair, one check ``p,q selection
rule`` over those targets, and ``cqglab cg`` one check ``selection rule
(<order>) order`` per order.  ``tests/test_tablewide.py`` pins each rule's
residual, bit for bit, to the largest per-triple residual; here a perturbed
input must turn the rule red, and the check counts of C[A4] are pinned.  A
rule names its worst target (detail ``worst``) only when it fails: a passing
rule's residuals are rounding, and the largest of them is chosen by noise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cqglab import cli
from cqglab import io as cio
from cqglab.cg import _selection_rules
from cqglab.corep import Corepresentation
from cqglab.tensor_ops import TensorOperatorFamily
from conftest import alternating_group_4


def run_reports(argv):
    args = cli._parser().parse_args(list(argv))
    return cli._COMMANDS[args.command](args)


def rules(reports) -> dict[tuple[str, str], tuple[float, float, dict]]:
    """``(title, name) -> (residual, tol, details)`` of every selection-rule check."""
    return {(rep.title, check.name): (check.residual, check.tol, check.details)
            for rep in reports for check in rep.checks if "selection rule" in check.name}


def test_the_rule_is_the_largest_absent_residual_and_its_first_target():
    residuals = np.array([[0.5, 2.0, 2.0, 9.0],
                          [1.0, 3.0, math.nan, 4.0],
                          [1.0, 1.0, 1.0, 1.0],
                          [-0.0, 0.0, 7.0, 7.0]])
    occurs = np.array([[False, False, False, True],
                       [False, True, False, False],
                       [True, True, True, True],
                       [False, False, True, True]])
    count, worst, rule = _selection_rules(residuals, occurs)
    assert count.tolist() == [3, 3, 0, 2]
    # ties go to the first target, a NaN wins, an occurring target never counts
    assert worst[[0, 1, 3]].tolist() == [1, 2, 0]
    assert rule[0] == 2.0 and math.isnan(rule[1]) and rule[3] == 0.0


@pytest.mark.parametrize("builtin", ["C(S3)", "C[S3]"])
def test_a_perturbed_family_turns_the_wigner_eckart_rule_red(monkeypatch, builtin):
    """Noise on every family's operators makes the inner products of targets that
    do not occur nonzero, so each pair's selection rule fails; unperturbed, it passes."""
    argv = ["wigner-eckart", "--builtin", builtin, "--side", "R", "--kind", "ordinary"]
    clean = rules(run_reports(argv))
    assert clean and all(residual <= tol for residual, tol, _ in clean.values())
    assert all("worst" not in details for _, _, details in clean.values())
    make = cli.multiplication_family

    def noisy(bset, kind):
        fam = make(bset, kind)
        noise = np.random.default_rng(3).standard_normal(fam.operators.shape)
        return TensorOperatorFamily(fam.corep, fam.kind, fam.side,
                                    fam.operators + 1e-3 * noise, carrier=fam.carrier)

    monkeypatch.setattr(cli, "multiplication_family", noisy)
    perturbed = rules(run_reports(argv))
    assert perturbed.keys() == clean.keys()
    assert all(residual > 1e3 * tol for residual, tol, _ in perturbed.values())
    assert all(details["worst"] in {"p0", "p1", "p2", "p3", "p4", "p5"}
               for _, _, details in perturbed.values())
    if builtin == "C(S3)":   # the targets the seeded noise moves most, far above rounding
        assert {name.split(" ")[0]: details["worst"]
                for (_, name), (_, _, details) in perturbed.items()} == {
            "p0,p0": "p2", "p0,p1": "p2", "p0,p2": "p0", "p1,p0": "p2", "p1,p1": "p2",
            "p1,p2": "p1", "p2,p0": "p1", "p2,p1": "p1"}
    assert cli.main(argv) == 1


def test_a_perturbed_factor_turns_the_cg_rule_red(monkeypatch):
    """Noise on the sign irrep's coefficients makes ``h(pi^r* pi^p pi^q)`` nonzero for
    targets that do not occur, so the selection rules of every pair with a sign
    factor fail in both orders; the pairs without one stay green."""
    argv = ["cg", "--builtin", "C(S3)"]
    clean = rules(run_reports(argv))
    assert clean and all(residual <= tol for residual, tol, _ in clean.values())
    haar_gaps = cli._triple_haar_gaps

    def noisy(ps, qs, targets, systems, h):
        def perturb(pi):
            if pi.label != "p1":
                return pi
            noise = np.random.default_rng(5).standard_normal(pi.coeffs.shape)
            return Corepresentation(pi.algebra, pi.coeffs + 1e-3 * noise, pi.label)
        return haar_gaps([*map(perturb, ps)], [*map(perturb, qs)], targets, systems, h)

    monkeypatch.setattr(cli, "_triple_haar_gaps", noisy)
    perturbed = rules(run_reports(argv))
    assert perturbed.keys() == clean.keys()
    for (title, name), (residual, tol, details) in perturbed.items():
        assert (residual > 1e3 * tol) == ("p1" in title), (title, name, residual)
        # a red rule names its worst target, a green one does not
        assert details.get("worst") == {"cg [p0 x p1]": "p2", "cg [p1 x p0]": "p2",
                                        "cg [p1 x p1]": "p2", "cg [p1 x p2]": "p1",
                                        "cg [p2 x p1]": "p1"}.get(title), (title, name)
    assert cli.main(argv) == 1


def test_cg_on_c_a4_writes_five_checks_per_pair(tmp_path):
    """C[A4]'s 144 pairs each have one occurring target of twelve, so ``cg`` writes
    144 x 5 checks: block diagonalization, the occurring target in both orders, and
    one selection rule per order over the other eleven.  (``wigner-eckart``'s
    4 x (144 + 144) is pinned in ``tests/test_absent_targets.py``.)"""
    group = tmp_path / "a4.json"
    cio.save_group(alternating_group_4(), group)
    cg = run_reports(["cg", "--group", str(group), "--construction", "group"])
    assert [len(rep.checks) for rep in cg] == [5] * 144
    assert [check.name for check in cg[0].checks][-2:] == ["selection rule (p,q) order",
                                                           "selection rule (q,p) order"]
    assert all(details == {"absent": 11} for _, _, details in rules(cg).values())
