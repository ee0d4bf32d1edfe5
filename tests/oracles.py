"""Classical finite-group oracles, independent of the library under test.

Everything here is computed directly from permutation arithmetic and explicit
representation matrices, so expected values never flow through the code being
verified.
"""

from __future__ import annotations

from dataclasses import replace
from math import factorial

import numpy as np

S3_ELEMENTS = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]


def s3_compose(p, q):
    return tuple(p[q[x]] for x in range(3))


def s3_index(p) -> int:
    return S3_ELEMENTS.index(tuple(p))


def s3_inverse(i: int) -> int:
    p = S3_ELEMENTS[i]
    inv = tuple(p.index(x) for x in range(3))
    return s3_index(inv)


def s3_parity(i: int) -> int:
    p = S3_ELEMENTS[i]
    swaps = sum(1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b])
    return -1 if swaps % 2 else 1


def s3_standard_matrix(i: int) -> np.ndarray:
    """The 2-dim orthogonal irrep: permutation action on the sum-zero plane."""
    p = S3_ELEMENTS[i]
    perm = np.zeros((3, 3))
    for src in range(3):
        perm[p[src], src] = 1.0
    basis = np.array([[1, -1, 0], [1, 1, -2]], dtype=float)
    basis = (basis.T / np.linalg.norm(basis, axis=1)).T
    return basis @ perm @ basis.T


def s3_irreps() -> dict[str, list[np.ndarray]]:
    return {
        "trivial": [np.array([[1.0]]) for _ in range(6)],
        "sign": [np.array([[float(s3_parity(i))]]) for i in range(6)],
        "standard": [s3_standard_matrix(i) for i in range(6)],
    }


def s3_character_table() -> dict[str, np.ndarray]:
    return {name: np.array([np.trace(m) for m in mats])
            for name, mats in s3_irreps().items()}


def classical_corep_coeffs(mats: list[np.ndarray]) -> np.ndarray:
    """Matrix-coefficient functions g -> Gamma(g)_jk over the delta basis."""
    d = mats[0].shape[0]
    coeffs = np.zeros((d, d, len(mats)), dtype=complex)
    for g, m in enumerate(mats):
        coeffs[:, :, g] = m
    return coeffs


def brute_schur_sum(mats: list[np.ndarray], j: int, k: int, m: int, n: int) -> complex:
    """(1/|G|) sum_g Gamma(g)_jk Gamma(g^{-1})_mn by direct group summation."""
    total = 0.0 + 0j
    for i in range(len(mats)):
        total += mats[i][j, k] * mats[s3_inverse(i)][m, n]
    return total / len(mats)


def brute_cross_schur(mats_p, mats_q, j, k, m, n) -> complex:
    total = 0.0 + 0j
    for i in range(len(mats_p)):
        total += mats_p[i][j, k] * mats_q[s3_inverse(i)][m, n]
    return total / len(mats_p)


def right_translation_matrix(x: int) -> np.ndarray:
    """Operator f -> f(. x) on the delta basis of functions on S3."""
    mat = np.zeros((6, 6))
    xinv = s3_inverse(x)
    for g in range(6):
        target = s3_index(s3_compose(S3_ELEMENTS[g], S3_ELEMENTS[xinv]))
        mat[target, g] = 1.0
    return mat


def conjugation_family_space_dim(irrep: str) -> int:
    """Dim of families (Q_1..Q_d) with R(x) Q_j R(x)^{-1} = sum_k Gamma_kj(x) Q_k.

    Solved by direct enumeration over the 36-dimensional operator space.
    """
    mats = s3_irreps()[irrep]
    d = mats[0].shape[0]
    rows = []
    r_ops = [right_translation_matrix(x) for x in range(6)]
    r_inv = [right_translation_matrix(s3_inverse(x)) for x in range(6)]
    for x in range(6):
        for j in range(d):
            block = np.zeros((36, d * 36), dtype=complex)
            conj_action = np.kron(r_ops[x], np.eye(6)) @ np.kron(np.eye(6), r_inv[x].T)
            block[:, j * 36:(j + 1) * 36] += conj_action
            for k in range(d):
                block[:, k * 36:(k + 1) * 36] -= mats[x][k, j] * np.eye(36)
            rows.append(block)
    system = np.vstack(rows)
    rank = np.linalg.matrix_rank(system, tol=1e-9)
    return d * 36 - rank


def frobenius_coset_multiplicities(subgroup: list[int], side: str) -> dict[str, int]:
    """Multiplicity of each irrep in the permutation action on cosets."""
    cosets = []
    seen: set[int] = set()
    for g in range(6):
        if g in seen:
            continue
        if side == "L":
            coset = frozenset(s3_index(s3_compose(S3_ELEMENTS[g], S3_ELEMENTS[h]))
                              for h in subgroup)
        else:
            coset = frozenset(s3_index(s3_compose(S3_ELEMENTS[h], S3_ELEMENTS[g]))
                              for h in subgroup)
        seen.update(coset)
        cosets.append(coset)

    def fixed_points(x: int) -> int:
        count = 0
        for coset in cosets:
            if side == "L":
                image = frozenset(s3_index(s3_compose(S3_ELEMENTS[x], S3_ELEMENTS[g]))
                                  for g in coset)
            else:
                image = frozenset(s3_index(s3_compose(S3_ELEMENTS[g], S3_ELEMENTS[x]))
                                  for g in coset)
            if image == coset:
                count += 1
        return count

    chars = s3_character_table()
    out = {}
    for name, chi in chars.items():
        total = sum(fixed_points(x) * np.conj(chi[x]) for x in range(6))
        value = total / 6
        out[name] = int(round(value.real))
    return out


def s3_fusion_multiplicity(p: str, q: str, r: str) -> int:
    chars = s3_character_table()
    total = sum(chars[p][g] * chars[q][g] * np.conj(chars[r][g]) for g in range(6))
    return int(round((total / 6).real))


def hook_length_degrees(n: int) -> list[int]:
    """Degrees of the irreducible representations of S_n, by the hook-length formula."""
    def partitions(rest, largest):
        if rest == 0:
            yield ()
        for part in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - part, part):
                yield (part,) + tail

    degrees = []
    for shape in partitions(n, n):
        columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
        hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):
                hooks *= (row - j) + (columns[j] - i) - 1
        degrees.append(factorial(n) // hooks)
    return sorted(degrees)


def tensor_product_algebra(first, second):
    """The tensor product Hopf *-algebra: every structure tensor is a Kronecker product.

    Basis element ``a_i (x) b_j`` has index ``i * second.dim + j``, the index
    order of ``np.kron``.
    """
    from cqglab.algebra import HopfAlgebraSpec
    return HopfAlgebraSpec(
        first.dim * second.dim,
        np.kron(first.mult, second.mult), np.kron(first.comult, second.comult),
        np.kron(first.antipode, second.antipode), np.kron(first.counit, second.counit),
        np.kron(first.unit, second.unit), np.kron(first.star, second.star),
        label=f"{first.label}(x){second.label}")


def rotated_algebra(alg, seed: int, real: bool = False):
    """``alg`` in the basis ``b_p = sum_j U[p, j] a_j`` for a random unitary ``U``.

    ``U`` is the Q factor of a complex Gaussian matrix drawn from ``seed``, so the
    new star matrix ``conj(U) star U^H`` is not real.  An element with
    coefficients ``x`` in the old basis has ``x @ U^H`` in the new one.  With
    ``real``, ``U`` is the Q factor of a real Gaussian matrix: a real ``alg`` stays
    real, with dense entries that are no longer 0 or 1.
    """
    from cqglab.algebra import HopfAlgebraSpec
    rng = np.random.default_rng(seed)
    n = alg.dim
    gauss = rng.standard_normal((n, n))
    u, _ = np.linalg.qr(gauss if real else gauss + 1j * rng.standard_normal((n, n)))
    ui = u.conj().T
    mult = np.tensordot(np.tensordot(u, np.tensordot(u, alg.mult, (1, 0)), (1, 1)),
                        ui, (2, 0)).swapaxes(0, 1)
    comult = np.tensordot(np.tensordot(u, alg.comult, (1, 0)) @ ui, ui, (1, 0)).swapaxes(1, 2)
    return HopfAlgebraSpec(n, mult, comult, u @ alg.antipode @ ui, u @ alg.counit,
                           alg.unit @ ui, np.conj(u) @ alg.star @ ui,
                           label=f"rot{seed}({alg.label})")


def is_commutative(alg) -> bool:
    return bool(np.abs(alg.mult - alg.mult.swapaxes(0, 1)).max() <= 1e-12 * alg.magnitude)


def random_elements(alg, count: int, seed: int = 0) -> np.ndarray:
    """``count`` complex coefficient vectors drawn from ``seed``, as rows ``[i, n]``."""
    rng = np.random.default_rng(seed)
    return np.array([rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
                     for _ in range(count)])


def opposite_algebra(alg):
    """The Hopf *-algebra with reversed product and inverse antipode: twisted tensor
    operators of ``alg`` are ordinary tensor operators of the opposite algebra."""
    from cqglab.algebra import HopfAlgebraSpec
    return HopfAlgebraSpec(
        dim=alg.dim,
        mult=alg.mult.transpose(1, 0, 2),
        comult=alg.comult.copy(),
        antipode=alg.antipode_inv,
        counit=alg.counit.copy(),
        unit=alg.unit.copy(),
        star=alg.star.copy(),
        label=f"op({alg.label})" if alg.label else "op",
    )


def verify_dual_pairing(alg, dual, tol: float = 1e-12):
    """Check the three defining pairing identities between ``alg`` and ``dual``.

    ``<M'(x,y), a> = <x (x) y, coproduct(a)>``, ``<coproduct'(x), a (x) b> =
    <x, M(a,b)>`` and ``<S'(x), a> = <x, S(a)>`` on all basis tuples.
    """
    from cqglab.report import Report
    report = Report(f"dual pairing [{alg.label}]", meta={"tol": tol})
    t = tol * alg.magnitude
    # <M'(a^j (x) a^k), a_l> = mult'[j,k,l]; <a^j (x) a^k, coproduct(a_l)> = comult[l,j,k]
    report.add("product vs coproduct",
               float(np.abs(dual.mult - alg.comult.transpose(1, 2, 0)).max()), t)
    report.add("coproduct vs product",
               float(np.abs(dual.comult - alg.mult.transpose(2, 0, 1)).max()), t)
    report.add("antipode transpose", float(np.abs(dual.antipode - alg.antipode.T).max()), t)
    report.add("counit vs unit", float(np.abs(dual.counit - alg.unit).max()), t)
    report.add("unit vs counit", float(np.abs(dual.unit - alg.counit).max()), t)
    return report


def haar_invariance_rows(alg) -> np.ndarray:
    """The homogeneous rows of the Haar invariance system, one ``u_k`` at a time:
    rows ``(l, k)`` hold ``comult[l, j, k] - delta_lj u_k`` (left), then rows
    ``(l, j)`` hold ``comult[l, j, k] - delta_lk u_j`` (right)."""
    n, mu, u = alg.dim, alg.comult, alg.unit
    left = mu.transpose(0, 2, 1).reshape(n * n, n).copy()
    right = mu.reshape(n * n, n).copy()
    for l in range(n):
        for k in range(n):
            left[l * n + k, l] -= u[k]
            right[l * n + k, l] -= u[k]
    return np.vstack([left, right])


def kronecker_intertwiners(coact_v, coact_w, rcond: float = 1e-9) -> list[np.ndarray]:
    """Basis of ``{Phi : Phi V = W Phi}`` from the tall Kronecker system, without ``h``.

    The equation ``sum_l Phi[j,l] V[l,k] = sum_l W[j,l] Phi[l,k]`` holds
    entrywise in the algebra: one row per ``(j, k, m)``, one unknown per
    ``Phi[a, b]``.  Singular values are cut at ``rcond`` times the larger of
    the top singular value and the largest coefficient, so an all-zero system
    keeps every unknown.  Returns orthonormal ``d_W x d_V`` matrices.
    """
    dv, dw, n = coact_v.shape[0], coact_w.shape[0], coact_v.shape[2]
    mat = np.einsum("ja,bkm->jkmab", np.eye(dw, dtype=complex), coact_v)
    mat -= np.einsum("jam,bk->jkmab", coact_w, np.eye(dv))
    _, sigma, vh = np.linalg.svd(mat.reshape(dw * dv * n, dw * dv), full_matrices=False)
    scale = max(sigma[0], np.abs(coact_v).max(), np.abs(coact_w).max())
    rank = int(np.sum(sigma > rcond * scale))
    return [row.reshape(dw, dv) for row in np.conj(vh[rank:])]


def haar_average(coact_v, coact_w, h) -> np.ndarray:
    """The averaging map ``P(Phi)[j,k] = sum_{l,m} h(W_jl S(V_mk)) Phi[l,m]`` on
    ``d_W x d_V`` matrices, as a ``(d_W d_V) x (d_W d_V)`` matrix indexed ``[(j, k), (l, m)]``."""
    alg = h.algebra
    dv, dw, n = coact_v.shape[0], coact_w.shape[0], alg.dim
    pair = np.einsum("abl,l->ab", alg.mult, h.covector)          # h(a_a a_b)
    s_v = np.einsum("mkb,bc->mkc", coact_v, alg.antipode)         # S(V_mk)
    weights = (coact_w.reshape(dw * dw, n) @ pair) @ s_v.reshape(dv * dv, n).T
    return weights.reshape(dw, dw, dv, dv).transpose(0, 3, 1, 2).reshape(dw * dv, dw * dv)


def svd_intertwiners(coact_v, coact_w, h, rcond: float = 1e-9) -> list[np.ndarray]:
    """Basis of ``Hom(V, W)`` as the nullspace of ``I - P`` by a full SVD.

    ``P`` is :func:`haar_average`; the nonzero singular values of ``I - P``
    are at least 1, so they are cut at ``rcond * max(sigma_max, 1)``.  Returns
    orthonormal ``d_W x d_V`` matrices.
    """
    dv, dw = coact_v.shape[0], coact_w.shape[0]
    size = dw * dv
    _, sigma, vh = np.linalg.svd(np.eye(size) - haar_average(coact_v, coact_w, h))
    rank = int(np.sum(sigma > rcond * max(sigma[0], 1.0)))
    return [row.reshape(dw, dv) for row in np.conj(vh[rank:])]


def sweedler_algebra():
    """Sweedler's 4-dim Hopf algebra: basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx.

    ``Delta g = g (x) g``, ``Delta x = x (x) 1 + g (x) x``, ``S(g) = g``,
    ``S(x) = -gx``, so ``S^2(x) = -x``.  It is not cosemisimple: no Haar
    functional exists.  The star (identity matrix) is only a placeholder.
    """
    from cqglab.algebra import HopfAlgebraSpec

    words = [(0, 0), (1, 0), (0, 1), (1, 1)]   # g^a x^b
    index = {w: i for i, w in enumerate(words)}
    mult = np.zeros((4, 4, 4))
    for i, (a1, b1) in enumerate(words):
        for j, (a2, b2) in enumerate(words):
            if b1 + b2 < 2:                      # x^2 = 0; x g = -g x
                mult[i, j, index[((a1 + a2) % 2, b1 + b2)]] = (-1) ** (b1 * a2)
    comult = np.zeros((4, 4, 4))
    comult[0, 0, 0] = 1.0                        # 1 -> 1 (x) 1
    comult[1, 1, 1] = 1.0                        # g -> g (x) g
    comult[2, 2, 0] = comult[2, 1, 2] = 1.0      # x -> x (x) 1 + g (x) x
    comult[3, 3, 1] = comult[3, 0, 3] = 1.0      # gx -> gx (x) g + 1 (x) gx
    antipode = np.zeros((4, 4))
    antipode[0, 0] = antipode[1, 1] = 1.0
    antipode[2, 3] = -1.0                        # S(x) = -gx
    antipode[3, 2] = 1.0                         # S(gx) = S(x) S(g) = -gx g = x
    return HopfAlgebraSpec(4, mult, comult, antipode, np.array([1.0, 1.0, 0.0, 0.0]),
                           np.array([1.0, 0.0, 0.0, 0.0]), np.eye(4), label="Sweedler")


def triple_haar_gaps(pi_p, pi_q, pi_r, sys_pq, sys_qp, h) -> tuple[float, float]:
    """Residuals of the triple-product Haar identity for one target, in both orders.

    ``h(pi^r*_ul pi^p_sj pi^q_tk)`` is one many-operand einsum over the basis;
    the right side is the double CG contraction of the target's blocks with
    ``(F^r)^{-1} / tr``.  A target that does not occur has an empty block.
    """
    alg = pi_p.algebra
    pair = np.einsum("abx,xcy,y->abc", alg.mult, alg.mult, h.covector)
    r_star = np.einsum("ulm,mt->ult", np.conj(pi_r.coeffs), alg.star)
    finv = np.linalg.inv(pi_r.F)
    gaps = []
    # the (q, p) product is laid out [u, l, t, k, s, j], as its system's blocks are
    for system, first, second, rhs in ((sys_pq, pi_p, pi_q, "aljk,astv,vu->ulsjtk"),
                                       (sys_qp, pi_q, pi_p, "alkj,atsv,vu->ultksj")):
        lhs = np.einsum("ula,xyb,zwc,abc->ulxyzw", r_star, first.coeffs, second.coeffs, pair)
        fwd, inv = system.blocks(pi_r.label, pi_r.dim)
        expected = np.einsum(rhs, inv, fwd, finv) / np.trace(finv)
        gaps.append(float(np.abs(lhs - expected).max()))
    return gaps[0], gaps[1]


def we_closed_form(tensor, system, r_label, f_r, kind):
    """One Wigner-Eckart factorization by the per-triple formulas.

    Returns the closed-form reduced elements, the reconstruction residual and
    the least-squares gap (``None`` when the target does not occur).
    """
    axes = "kj" if kind == "ordinary" else "jk"
    finv = np.linalg.inv(f_r)
    fwd, inv = system.blocks(r_label, tensor.shape[0])
    reduced = np.einsum(f"ukj,a{axes}v,vu->a", tensor, fwd, finv) / np.trace(finv)
    design = np.einsum(f"al{axes}->lkja", inv)
    residual = float(np.abs(tensor - design @ reduced).max())
    gap = None
    if len(reduced):
        lsq, *_ = np.linalg.lstsq(design.reshape(-1, len(reduced)), tensor.reshape(-1),
                                  rcond=None)
        gap = float(np.abs(lsq - reduced).max())
    return reduced, residual, gap


def reduced_elements(check) -> np.ndarray:
    """The reduced elements of a Wigner-Eckart check, read back from the
    ``[re, im]`` pairs of its ``reduced`` detail."""
    pairs = np.array(check.details["reduced"], dtype=float).reshape(-1, 2)
    return pairs[:, 0] + 1j * pairs[:, 1]


def projection_identity_gaps(table, side, h, ordering="standard") -> dict[str, float]:
    """The projection identities and completeness by per-index loops.

    Each ``P^p_mn`` is built on its own from the per-row contraction, every
    pair is multiplied in a loop over ``(p, m, n, q, j, k)`` and every action
    in a loop over ``(q, p, m, n, k)``.  Returns the worst gap per check,
    keyed like :func:`cqglab.regular.verify_projection_identities`, plus
    ``"completeness"``: the residual of ``sum_p (tr((F^p)^{-1}) / d_p)
    sum_{m,n} F^p_nm P^p_mn = id`` over the same projections.
    """
    from cqglab.regular import canonical_basis_functions, regular_coaction_tensor

    alg = table.algebra
    tensor = regular_coaction_tensor(alg, side)
    rule = "u,ubl,l->b" if ordering == "standard" else "u,bul,l->b"
    ops = {}
    for p_idx, pi in enumerate(table):
        for m_idx in range(pi.dim):
            for n_idx in range(pi.dim):
                star_mn = np.conj(pi.coeffs[m_idx, n_idx]) @ alg.star
                weights = np.einsum(rule, star_mn, alg.mult, h.covector)
                ops[p_idx, m_idx, n_idx] = pi.dim * np.einsum("tab,b->at", tensor, weights)

    worst_same = 0.0
    worst_cross = 0.0
    for p_idx, pi in enumerate(table):
        finv = np.linalg.inv(pi.F)
        finv_tr = np.trace(finv)
        for q_idx, rho in enumerate(table):
            for m_idx in range(pi.dim):
                for n_idx in range(pi.dim):
                    left = ops[p_idx, m_idx, n_idx]
                    for j_idx in range(rho.dim):
                        for k_idx in range(rho.dim):
                            prod = left @ ops[q_idx, j_idx, k_idx]
                            if p_idx == q_idx:
                                expected = (pi.dim * finv[n_idx, j_idx] / finv_tr
                                            ) * ops[p_idx, m_idx, k_idx]
                                worst_same = max(worst_same,
                                                 float(np.abs(prod - expected).max()))
                            else:
                                worst_cross = max(worst_cross, float(np.abs(prod).max()))

    worst_action = 0.0
    for q_idx, rho in enumerate(table):
        bset = canonical_basis_functions(rho, side, row=0)
        for p_idx, pi in enumerate(table):
            finv = np.linalg.inv(pi.F)
            finv_tr = np.trace(finv)
            for m_idx in range(pi.dim):
                for n_idx in range(pi.dim):
                    acted = (ops[p_idx, m_idx, n_idx] @ bset.functions.T).T
                    if p_idx == q_idx:
                        expected = np.zeros_like(acted)
                        for k_idx in range(rho.dim):
                            if k_idx == n_idx:
                                expected[k_idx] = pi.dim / finv_tr * (
                                    finv[:, m_idx] @ bset.functions)
                        worst_action = max(worst_action,
                                           float(np.abs(acted - expected).max()))
                    else:
                        worst_action = max(worst_action, float(np.abs(acted).max()))

    total = np.zeros((alg.dim, alg.dim), dtype=complex)
    for p_idx, pi in enumerate(table):
        f = pi.F
        finv_tr = np.trace(np.linalg.inv(f))
        for m_idx in range(pi.dim):
            for n_idx in range(pi.dim):
                total += (finv_tr / pi.dim) * f[n_idx, m_idx] * ops[p_idx, m_idx, n_idx]
    return {"composition same-irrep": worst_same, "composition cross-irrep": worst_cross,
            "action on basis functions": worst_action,
            "completeness": float(np.abs(total - np.eye(alg.dim)).max())}


def per_operator_coaction(alg, q_op, kind, side, route):
    """Operator-space coaction components ``[m, a, t]`` of one operator, one step at a time.

    ``route="maps"`` runs the defining pipeline (Q (x) S^pm, coact (x) id,
    [swap], id (x) M) as one einsum per step; ``route="constants"`` is the
    per-operator structure-constant chain, in which Q meets one coproduct and
    the result meets the other before the product.
    """
    from cqglab.regular import regular_coaction_tensor

    mu, m, s = alg.comult, alg.mult, alg.antipode
    spow = s if kind == "ordinary" else alg.antipode_inv
    if route == "maps":
        coact = regular_coaction_tensor(alg, side)
        legs = np.einsum("tab,ia->itb", coact, q_op)
        legs = np.einsum("itb,bw->itw", legs, spow)
        legs = np.einsum("itw,iAB->ABwt", legs, coact)
        order = "BwM" if kind == "ordinary" else "wBM"
        return np.einsum(f"ABwt,{order}->MAt", legs, m)
    if side == "R":
        acted = np.tensordot(q_op, mu, axes=(1, 1)) @ spow
        legs = np.tensordot(mu, acted, axes=(0, 0))
        m_axes = (0, 1) if kind == "ordinary" else (1, 0)
        out = np.tensordot(legs, m, axes=((1, 3), m_axes))
    elif kind == "ordinary":
        acted = np.tensordot(q_op, mu, axes=(1, 2)) @ s
        legs = np.tensordot(mu, acted, axes=(0, 0))
        out = np.tensordot(legs, m, axes=((0, 3), (1, 0))) @ s
    else:
        acted = np.tensordot(q_op, mu, axes=(1, 2))
        legs = np.tensordot(np.einsum("iuj,uv->ivj", mu, s), acted, axes=(0, 0))
        out = np.tensordot(legs, m, axes=((3, 0), (0, 1)))
    return out.transpose(2, 0, 1)


def per_operator_family_residual(fam, kind, side) -> float:
    """The defining-condition residual of a family, one operator and one route at a time."""
    rhs = np.einsum("kat,kjm->jmat", fam.operators, fam.corep.coeffs)
    return max(float(np.abs(np.array([per_operator_coaction(fam.algebra, op, kind, side, route)
                                      for op in fam.operators]) - rhs).max())
               for route in ("constants", "maps"))


def per_pair_cg(pi_p, pi_q, table, h, tol: float = 1e-9):
    """The CG system of one pair, solved on its own by the paper's projections: the
    per-pair body of the route ``solve_cg`` takes for a whole stack of pairs.

    One tensor product ``W`` and one character count per target.  For each target
    ``r`` the maps ``P^r_l1 = d_r (id (x) h)(W (pi^r_l1)^*)``, one SVD of ``P^r_11``
    for its range, each range vector ``v`` lifted to ``T = [P^r_l1 v]_l / sqrt(d_r)``,
    ``v`` and ``T`` phase-fixed (first entry above ``1e-12`` real positive).  Then
    one SVD, inverse and block residual for the pair's ``C``.
    """
    from cqglab.cg import (CGSystem, _characters, _integer_counts, cg_block_residual,
                           tensor_product)
    from cqglab.errors import MultiplicityMismatch, SingularC

    def phase_fixed(rows):
        lead = rows[np.arange(len(rows)), (np.abs(rows) > 1e-12).argmax(axis=1)]
        return rows * (np.abs(lead) / lead)[:, None]

    big = tensor_product(pi_p, pi_q, "ordinary")
    alg = big.algebra
    d_total, n = big.dim, alg.dim
    chi_big = np.trace(big.coeffs)
    haar_pair = alg.mult @ h.covector  # [a, b] = h(a_a a_b)
    _, conj_chars = _characters(table)
    counts = _integer_counts(conj_chars @ (haar_pair.T @ chi_big)).tolist()
    col_blocks, col_index, mults = [], [], {}
    for label, target, expected in zip(table.labels, table.irreps, counts):
        dim = target.dim
        firsts = np.conj(target.coeffs[:, 0]) @ alg.star      # [l, m]: (pi^r_l1)^*
        proj = (big.coeffs.reshape(-1, n) @ (haar_pair @ (dim * firsts).T)).reshape(
            d_total, d_total, dim).transpose(2, 0, 1)         # [l, c, c']: P^r_l1
        u, sigma, _ = np.linalg.svd(proj[0])
        rank = int(np.sum(sigma > 1e-9 * max(sigma[0], 1.0)))
        if rank != expected:
            raise MultiplicityMismatch(
                f"{pi_p.label} (x) {pi_q.label} -> {label}: intertwiner space has "
                f"dimension {rank}, characters give {expected}")
        if expected == 0:
            continue
        vecs = phase_fixed(u[:, :rank].T)
        lifted = (proj @ vecs.T).transpose(2, 1, 0) / np.sqrt(dim)   # [alpha, c, l]
        tmats = phase_fixed(lifted.reshape(rank, -1)).reshape(rank, d_total, dim)
        mults[label] = expected
        col_blocks.extend(tmats)
        col_index.extend((label, alpha, ell)
                         for alpha in range(expected) for ell in range(dim))
    if len(col_index) != d_total:
        raise MultiplicityMismatch(
            f"fusion of {pi_p.label} (x) {pi_q.label} fills {len(col_index)} of "
            f"{d_total} columns")
    c_mat = np.hstack(col_blocks)
    sigma = np.linalg.svd(c_mat, compute_uv=False)
    if sigma[-1] <= 1e-10 * sigma[0]:
        raise SingularC("assembled CG matrix is numerically singular")
    system = CGSystem(pi_p.label, pi_q.label, pi_p.dim, pi_q.dim,
                      c_mat, np.linalg.inv(c_mat), mults, col_index, float("nan"))
    res = cg_block_residual(system, pi_p, pi_q, table)
    if res > tol * alg.magnitude:
        raise MultiplicityMismatch(
            f"CG block-diagonalization residual {res:.2e} exceeds tolerance")
    return replace(system, block_residual=res)


def padded_blocks(systems, labels, dims):
    """The padded blocks of ``cg._padded_blocks`` for every (system, target) entry,
    zero where the target does not occur, and the multiplicity matrix
    ``mults[w, r]``, each system's multiplicity and first column of every target
    looked up with ``dict.get``, one entry at a time."""
    mults = np.array([[s.multiplicities.get(r, 0) for r in labels] for s in systems])
    starts = np.array([[s.offsets.get(r, 0) for r in labels] for s in systems])
    dims_arr = np.array(dims)
    alpha = np.arange(max(1, mults.max(initial=0)))[:, None]
    ell = np.arange(max(dims, default=0))
    cols = starts[:, :, None, None] + alpha * dims_arr[:, None, None] + ell
    keep = (alpha < mults[:, :, None, None]) & (ell < dims_arr[:, None, None])
    cols = np.where(keep, cols, 0)
    which = np.arange(len(systems))[:, None, None, None]
    c_mats = np.stack([s.C for s in systems])
    c_invs = np.stack([s.Cinv for s in systems])
    fwd = c_mats[which, :, cols] * keep[..., None]
    inv = c_invs[which, cols] * keep[..., None]
    return fwd.swapaxes(-1, -2), inv, mults


def peel_split(pi, gram, ops, cluster_tol: float = 1e-8) -> list:
    """Commutant eigensplitting by the recursive peel ``corep._split`` used before
    it cut by one combination of the commutant parts.

    Every piece restarts the scan at the first operator, compresses every
    operator again, runs ``eigh`` on each self-adjoint and skew part until one
    has two eigenvalue clusters, and certifies the pieces of every split by
    how far the corep maps each outside itself.  Returns ``(basis, rho)`` per
    piece, as ``corep._split`` does.
    """
    from cqglab.corep import _gram_basis, _lift, _restrict, _restrict_corep
    from cqglab.errors import DecompositionStall, PositivityFailure
    from cqglab.haar import _positivity

    _, min_eig, floor = _positivity(gram)
    if min_eig <= floor:
        raise PositivityFailure(f"invariant inner product of {pi.label!r} is not "
                                f"positive definite (min eig {min_eig:.2e})")
    ops = np.asarray(ops)
    bound = 1e-7 * pi.algebra.magnitude

    def split(basis):
        if basis.shape[1] == 1:
            return [basis]
        for comp in basis.conj().T @ gram @ (ops @ basis):
            for part in ((comp + comp.conj().T) / 2.0, (comp - comp.conj().T) / 2j):
                eigvals, eigvecs = np.linalg.eigh(part)
                spread = eigvals[-1] - eigvals[0]
                cuts = np.flatnonzero(np.diff(eigvals) > cluster_tol * max(1.0, spread)) + 1
                if cuts.size == 0:
                    continue
                sub_bases = [basis @ vecs for vecs in np.split(eigvecs, cuts, axis=1)]
                worst = max(_restrict(_lift(pi, b), b, gram)[1] for b in sub_bases)
                if worst > bound:
                    raise DecompositionStall(f"a commutant eigenspace is not invariant "
                                             f"(residual {worst:.1e} > {bound:.1e})")
                return [piece for b in sub_bases for piece in split(b)]
        return [basis]

    return [(basis, _restrict_corep(pi, basis, gram, f"{pi.label}|{basis.shape[1]}d"))
            for basis in split(_gram_basis(gram))]


def per_irrep_certificates(pi) -> dict[str, float]:
    """The comodule and unitarity residuals of one corep by the per-irrep einsums that
    ``verify_corep`` and ``check_unitary`` ran before a table was certified in one pass."""
    alg, eye = pi.algebra, np.eye(pi.dim)
    split = np.einsum("jkm,mab->jkab", pi.coeffs, alg.comult)
    split -= np.einsum("jla,lkb->jkab", pi.coeffs, pi.coeffs)
    star = np.einsum("jkm,mt->jkt", np.conj(pi.coeffs), alg.star)             # pi_jk^*
    antipode = np.einsum("jkm,mt->jkt", pi.coeffs, alg.antipode)             # S(pi_jk)
    one = np.einsum("jk,m->jkm", eye, alg.unit)
    cols = np.einsum("lja,lkb,abm->jkm", star, pi.coeffs, alg.mult)          # pi_lj^* pi_lk
    rows = np.einsum("jla,klb,abm->jkm", pi.coeffs, star, alg.mult)          # pi_jl pi_kl^*
    return {"coproduct splits": float(np.abs(split).max()),
            "counit is identity": float(np.abs(pi.coeffs @ alg.counit - eye).max()),
            "antipode flips to star": float(np.abs(antipode - star.transpose(1, 0, 2)).max()),
            "columns orthonormal": float(np.abs(cols - one).max()),
            "rows orthonormal": float(np.abs(rows - one).max())}


def per_pair_schur(pi_p, pi_q, h) -> dict[str, float]:
    """The Schur orthogonality residuals of one pair by the per-pair einsums that
    ``verify_orthogonality`` ran before the table's Grams; ``pi_p is pi_q`` is the
    diagonal pair, with the value ``delta_jn delta_mk / d``."""
    alg = pi_p.algebra
    pair = np.einsum("abl,l->ab", alg.mult, h.covector)
    s_p, s_q = (np.einsum("jkm,mt->jkt", pi.coeffs, alg.antipode) for pi in (pi_p, pi_q))
    first = np.einsum("jka,mnb,ab->jkmn", pi_p.coeffs, s_q, pair)
    second = np.einsum("jka,mnb,ab->jkmn", s_p, pi_q.coeffs, pair)
    if pi_p is not pi_q:
        return {"h(pi S(pi')) = 0": float(np.abs(first).max()),
                "h(S(pi) pi') = 0": float(np.abs(second).max())}
    eye = np.eye(pi_p.dim)
    expected = np.einsum("jn,mk->jkmn", eye, eye / pi_p.dim)
    return {"h(pi S(pi)) = d_jn F_mk/trF": float(np.abs(first - expected).max()),
            "h(S(pi) pi) = d_jn Finv_mk/trFinv": float(np.abs(second - expected).max())}


def per_pair_characters(pi_p, pi_q, h) -> dict[str, complex]:
    """``h(chi_p^* chi_q)`` (``forward``) and ``h(chi_q chi_p^*)`` (``reversed``) of one
    pair, each by one element product and one Haar evaluation."""
    alg = h.algebra
    star_p, chi_q = np.conj(pi_p.character()) @ alg.star, pi_q.character()
    return {"forward": complex(h.covector @ np.einsum("j,k,jkl->l", star_p, chi_q, alg.mult)),
            "reversed": complex(h.covector @ np.einsum("j,k,jkl->l", chi_q, star_p, alg.mult))}


# ---------------------------------------------------------------------------
# report rendering, one CheckResult at a time
# ---------------------------------------------------------------------------

def check_dict(check) -> dict:
    """One check of a ``cqglab/report-v1`` report, rendered from its ``CheckResult``
    the way reports were rendered when they held a list of them."""
    out = {"name": check.name, "residual": float(check.residual), "tol": float(check.tol),
           "passed": check.passed}
    if check.details:
        out["details"] = check.details
    return out


def report_passed(report) -> bool:
    return all(check.passed for check in report.checks)


def report_max_residual(report) -> float:
    """The largest residual, NaN when any residual is NaN, whatever the order."""
    residuals = [check.residual for check in report.checks]
    return float("nan") if any(r != r for r in residuals) else max(residuals, default=0.0)


def report_dict(report) -> dict:
    checks = [check_dict(check) for check in report.checks]
    out = {"title": report.title, "passed": all(c["passed"] for c in checks),
           "max_residual": report_max_residual(report), "checks": checks}
    if report.meta:
        out["meta"] = report.meta
    return out


def report_summary(report, limit: int) -> str:
    """The stdout lines of one report: past ``limit`` checks, the count and worst
    residual on the verdict line and only the failing checks below it."""
    checks = report.checks
    head = f"{report.title}: {'PASS' if report_passed(report) else 'FAIL'}"
    if len(checks) > limit:
        head += f" ({len(checks)} checks, worst residual {report_max_residual(report):.3e})"
        checks = [check for check in checks if not check.passed]
    return "\n".join([head] + [
        f"  [{'ok ' if check.passed else 'BAD'}] {check.name}: residual {check.residual:.3e} "
        f"(tol {check.tol:.1e})" for check in checks])


def payload_csv(payload: dict) -> str:
    """The CSV of a ``report_payload`` dict, rendered one check dict at a time."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["report", "check", "residual", "tol", "passed"])
    writer.writerows([rep["title"], chk["name"], f"{chk['residual']:.6e}",
                      f"{chk['tol']:.3e}", chk["passed"]]
                     for rep in payload["reports"] for chk in rep["checks"])
    return out.getvalue()


def loop_group_arrays(group) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(mult, comult, antipode)`` of ``C(G)`` (key ``"function"``) and ``C[G]`` (key
    ``"group"``), filled one table entry at a time: ``delta_x delta_x = delta_x``,
    ``delta_x (x) delta_y`` in the coproduct of ``delta_xy``, ``x y`` in the group
    algebra, and ``S`` sending each basis element to its inverse's."""
    g, table = group.order, np.asarray(group.table)
    f_mult, f_comult, g_mult, g_comult = (np.zeros((g, g, g), dtype=complex) for _ in range(4))
    f_s, g_s = np.zeros((g, g), dtype=complex), np.zeros((g, g), dtype=complex)
    for x in range(g):
        f_mult[x, x, x] = g_comult[x, x, x] = 1.0
        inverse = int(np.where(table[x] == 0)[0][0])
        f_s[x, inverse] = g_s[x, inverse] = 1.0
        for y in range(g):
            f_comult[table[x, y], x, y] = g_mult[x, y, table[x, y]] = 1.0
    return {"function": (f_mult, f_comult, f_s), "group": (g_mult, g_comult, g_s)}
