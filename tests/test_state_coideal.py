"""Coideals from idempotent states: ``state_coideal``'s certificates and ranges.

For a state ``phi`` with ``phi * phi = phi`` the range of ``E_phi``, ``phi`` on the
first leg of the side's coproduct, is a right (side R) or left (side L) coideal
*-subalgebra.  A subgroup's indicator over its value on the unit is one such state
on C(G) (B the functions constant on cosets, the oracle's span), on C[G], on the
twist C[S4]^J over K = <(01), (23)> (the indicator of D4 gives C[D4]^J) and on the
dual of that twist (K's average gives a 6-dim coideal).  The last two are neither
commutative nor cocommutative, and their coideals are noncommutative.  Over
Z3 = <(012)> the same formula gives no state on the dual (not Hermitian) and no
idempotent on the twist, so the constructor refuses both, and their raw ranges are
no *-subalgebras: the red witnesses of ``product closure`` and ``star closure``.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from beds import GROUPS, S4, context
from oracles import coset_rows

from cqglab import cli
from cqglab.algebra import LinearFunctional
from cqglab.errors import CqglabError, DimensionMismatch, NotAnIdempotentState
from cqglab.groups import build_function_algebra, cyclic_group, symmetric_group_3
from cqglab.haar import _positivity, solve_haar
from cqglab.homspace import build_coset_subalgebra, state_coideal, subspace_coideal, verify_coideal

PERMS = {p: i for i, p in enumerate(sorted(permutations(range(4))))}
A, B = PERMS[(1, 0, 2, 3)], PERMS[(0, 1, 3, 2)]          # (01) and (23)
K = [A, B]
D4 = [A, B, PERMS[(2, 3, 0, 1)]]                          # K and (02)(13)
Z3 = [PERMS[(1, 2, 0, 3)]]                                # (012)


def subgroup_of(group, generators) -> list[int]:
    """The subgroup ``generators`` generate, sorted."""
    elems, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = group.mul(x, g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return sorted(elems)


def subgroup_state(alg, subgroup) -> LinearFunctional:
    """The indicator of ``subgroup`` over its value on the unit: the subgroup's Haar
    state on C(G), its indicator on C[G], its average on the dual of C[G]^J."""
    indicator = np.isin(np.arange(alg.dim), subgroup).astype(float)
    return LinearFunctional(alg, indicator / (alg.unit @ indicator))


def raw_range(phi, side) -> np.ndarray:
    """Orthonormal rows spanning the range of ``E_phi``, built with no certificate: right
    ``E_phi(a_l) = sum phi(a_(1)) a_(2)``, left ``sum a_(1) phi(a_(2))``."""
    comult = phi.algebra.comult
    e_phi = np.einsum("ljk,j->lk" if side == "R" else "lkj,j->lk", comult, phi.covector)
    u, sigma, _ = np.linalg.svd(e_phi.T)
    return u[:, sigma > 1e-9 * sigma[0]].T


def _order_two(group) -> list[int]:
    return [0, next(g for g in range(1, group.order) if group.mul(g, g) == 0)]


def _klein(group) -> list[int]:
    return [0, *(g for g in range(1, group.order) if group.mul(g, g) == 0)]


@pytest.mark.parametrize("side", ["R", "L"])
@pytest.mark.parametrize("name, pick", [
    pytest.param("S3", _order_two, id="C(S3) H2"),
    pytest.param("D6", _order_two, id="C(D6) H2"),
    pytest.param("A4", _order_two, id="C(A4) H2"),
    pytest.param("A4", _klein, id="C(A4) Klein"),
    pytest.param("S4", _order_two, id="C(S4) H2"),
    pytest.param("S4", lambda g: subgroup_of(g, D4), id="C(S4) D4")])
def test_range_is_the_coset_span(name, pick, side):
    """On C(G) the range of the subgroup's Haar state is the span of the indicators of
    its cosets (left cosets on side L, right on side R), and B keeps its label."""
    ctx, group = context(f"C({name})"), GROUPS[name][0]
    subgroup = pick(group)
    assert group.is_subgroup(subgroup) and len(subgroup) in (2, 4, 8)
    coideal = build_coset_subalgebra(group, subgroup, side, ctx.grams)
    q, _ = np.linalg.qr(coset_rows(group, subgroup, side).T)
    rows = coideal.span_rows
    assert coideal.dim == q.shape[1] == group.order // len(subgroup)
    assert np.abs(rows.conj().T @ rows - q @ q.T).max() < 1e-12, (name, side)
    assert coideal.label == f"{ctx.algebra.label}/H{len(subgroup)}:{side}"
    assert verify_coideal(coideal).passed


@pytest.mark.parametrize("side", ["R", "L"])
def test_group_algebra_range_is_the_subgroup_algebra(contexts, side):
    """On C[S3] the indicator of H = {e, (01)} is idempotent, and B = C[H] = span H."""
    coideal = build_coset_subalgebra(symmetric_group_3(), [0, 1], side, contexts["C[S3]"].grams)
    assert coideal.dim == 2
    assert np.abs(coideal.span_rows[:, 2:]).max() < 1e-15
    assert verify_coideal(coideal).passed


@pytest.mark.parametrize("side", ["R", "L"])
@pytest.mark.parametrize("bed, generators, dim", [("C[S4]^J", D4, 8), ("dual C[S4]^J", K, 6)],
                         ids=["C[D4]^J", "dual-K"])
def test_noncommutative_homogeneous_space(bed, generators, dim, side):
    """C[D4]^J in C[S4]^J and K's 6-dim coideal of the dual of C[S4]^J: noncommutative
    coideals that pass the coideal axioms, the restricted coaction, and the restricted
    Wigner-Eckart tables of both kinds, as ``cqglab homspace`` writes them."""
    ctx = context(bed)
    coideal = state_coideal(subgroup_state(ctx.algebra, subgroup_of(S4, generators)), side,
                            ctx.grams)
    assert coideal.dim == dim
    product = coideal.carrier.product
    assert np.abs(product - product.transpose(1, 0, 2)).max() > 0.5  # B is noncommutative
    reports = cli._coideal_reports(coideal, ctx.table, 1e-9)
    assert [rep.title.split(" [")[0] for rep in reports] == [
        "coideal axioms", "restricted coaction", "restricted basis functions",
        "restricted wigner-eckart", "restricted wigner-eckart"]
    assert all(rep.passed for rep in reports), [rep.summary() for rep in reports]
    assert sum(len(rep.checks) for rep in reports[3:]) >= 8
    dims = reports[2].meta["solution_dims"]
    assert sum(count * ctx.table[label].dim for label, count in dims.items()) == dim


@pytest.mark.parametrize("side", ["R", "L"])
def test_singular_state_is_accepted(side):
    """A state's matrix phi(a_i^* a_j) is singular: D4's indicator on C[S4]^J has a least
    eigenvalue of rounding size below zero, so positivity is semidefinite."""
    twist = context("C[S4]^J")
    phi = subgroup_state(twist.algebra, subgroup_of(S4, D4))
    _, min_eig, floor = _positivity(twist.algebra.star @ phi.pair)
    assert min_eig < floor
    assert state_coideal(phi, side, twist.grams).dim == 8


@pytest.mark.parametrize("side", ["R", "L"])
def test_z3_average_on_the_dual_is_refused(side):
    """Z3's average on the dual of C[S4]^J is idempotent but not Hermitian, so no state;
    its raw range is closed neither under products nor under the star."""
    twist_dual = context("dual C[S4]^J")
    alg = twist_dual.algebra
    phi = subgroup_state(alg, subgroup_of(S4, Z3))
    herm, min_eig, _ = _positivity(alg.star @ phi.pair)
    assert herm > 0.1 and min_eig < -1e-2
    with pytest.raises(NotAnIdempotentState, match="hermiticity"):
        state_coideal(phi, side, twist_dual.grams)
    report = verify_coideal(subspace_coideal(raw_range(phi, side), side, twist_dual.grams))
    failed = {check.name for check in report.checks if not check.passed}
    assert failed == {"product closure", "star closure"}, report.summary()
    assert min(report["product closure"].residual, report["star closure"].residual) > 0.05


@pytest.mark.parametrize("side", ["R", "L"])
def test_z3_indicator_on_the_twist_is_refused(side):
    """Z3's indicator on C[S4]^J is a state but not idempotent (gap 0.5); its raw range
    is not closed under products."""
    twist = context("C[S4]^J")
    phi = subgroup_state(twist.algebra, subgroup_of(S4, Z3))
    with pytest.raises(NotAnIdempotentState, match="idempotency 5.00e-01"):
        state_coideal(phi, side, twist.grams)
    report = verify_coideal(subspace_coideal(raw_range(phi, side), side, twist.grams))
    assert not report["product closure"].passed, report.summary()


@pytest.mark.parametrize("covector, certificate", [
    ([0.5, 0.0], "normalization"),
    ([1.0 - 1.0j, 1.0j], "hermiticity"),
    ([2.0, -1.0], "positivity"),
    ([0.5, 0.5], None),          # the Haar state: B = C1
    ([1.0, 0.0], None),          # the counit: B = A
])
def test_each_certificate_refuses_alone(covector, certificate):
    """On C(Z2), phi(a_i^* a_j) = diag(phi): each functional fails the named certificate
    after passing the ones before it, and the two idempotent states pass all four."""
    alg = build_function_algebra(cyclic_group(2))
    grams = solve_haar(alg)._grams
    phi = LinearFunctional(alg, np.array(covector))
    if certificate is None:
        assert state_coideal(phi, "R", grams).dim == (1 if covector[1] else 2)
        return
    with pytest.raises(NotAnIdempotentState, match=certificate) as err:
        state_coideal(phi, "R", grams)
    assert isinstance(err.value, CqglabError)


def test_state_of_another_algebra_is_a_dimension_mismatch(contexts):
    phi = subgroup_state(contexts["C(S3)"].algebra, [0, 1])
    with pytest.raises(DimensionMismatch):
        state_coideal(phi, "R", contexts["C[S3]"].grams)
