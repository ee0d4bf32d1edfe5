"""The paper's projection operators, which ``corep._block_diagonalize`` reads every
multiplicity space off.

``P^r_lm = d_r (id (x) h)(W (pi^r_lm)^*)`` acts on each copy of ``pi^r`` inside a
comodule ``W`` as the matrix unit ``E_lm`` and kills every other irrep, so on
``pi^r`` itself it is ``E_lm``, on ``pi^s`` (``s != r``) it is 0, and
``tr P^r_11`` on ``pi^s`` is ``delta_rs``, the count of ``pi^r`` in ``pi^s``.  Checked
from the Haar pairing directly, for every ``l, m``, and through the table's
projection factor, whose columns are the ``m = 1`` maps, on every irrep of every
bed with n <= 36, among them the rotated beds, whose star matrix is not real.
"""

from __future__ import annotations

import numpy as np
import pytest

from beds import context, up_to

TOL = 1e-12


@pytest.mark.parametrize("label", up_to(36))
def test_projections_are_matrix_units_on_each_irrep(label):
    ctx = context(label)
    n = ctx.algebra.dim
    for pi in ctx.table:
        d = pi.dim
        # [(c, c'), (l, m)] = d h(pi_cc' (pi_lm)^*)
        units = d * (pi.coeffs.reshape(-1, n) @ ctx.haar.pair @ pi.star_coeffs().reshape(-1, n).T)
        assert np.abs(units - np.eye(d * d)).max() < TOL, (label, pi.label)


@pytest.mark.parametrize("label", up_to(36))
def test_projection_factor_reads_units_and_counts(label):
    ctx = context(label)
    table, n = ctx.table, ctx.algebra.dim
    factor, lifts, weights = table._projection_factor
    assert table.haar is ctx.haar and table._projection_factor[0] is factor  # once per table
    assert not any(arr.flags.writeable for arr in (factor, lifts, weights))
    dims = np.array(table.dims())
    assert factor.shape == (n, dims.sum())
    assert np.array_equal(weights > 0, np.arange(dims.max()) < dims[:, None])
    assert np.allclose(weights.sum(axis=1), np.sqrt(dims))     # 1 / sqrt(tr F^r), d_r times
    for s, pi in enumerate(table):
        read = (pi.coeffs.reshape(-1, n) @ factor).reshape(pi.dim, pi.dim, -1)
        for r, d in enumerate(dims):
            want = np.zeros((pi.dim, pi.dim, d))
            if r == s:
                want[np.arange(d), 0, np.arange(d)] = 1.0         # P^r_l1 = E_l1
            assert np.abs(read[..., lifts[r, :d]] - want).max() < TOL, (label, pi.label, r)
        counts = np.trace(read[..., lifts[:, 0]])                  # tr P^r_11
        assert np.abs(counts - np.eye(len(table))[s]).max() < TOL, (label, pi.label)
