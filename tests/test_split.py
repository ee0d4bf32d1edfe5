"""The commutant split and the recursive peel give the same irrep table up to the
choice of representatives.

``corep._split`` cuts the carrier by one fixed combination of all the
commutant parts; ``oracles.peel_split`` cuts by one part at a time and
restarts every piece at the first operator.  The two choose different
orthonormal bases for the pieces, so the representatives' coefficients
differ; everything a correct split determines must agree: labels,
dimensions and multiplicities, characters (to 1e-12), the fusion
multiplicities of every pair, and an invertible intertwiner from each of
our representatives to the peel's, on every bed with n <= 24 (groups with their
elements renamed among them) and on C(S3) (x) C[S3].  (The test keeps its name from
when both splits made the same cuts and were compared bit for bit.)
"""

from __future__ import annotations

import numpy as np
import pytest

from beds import context, up_to
from oracles import peel_split

from cqglab import corep
from cqglab.cg import solve_cg_systems
from cqglab.corep import are_equivalent, irrep_table


@pytest.mark.parametrize("label", [*up_to(24), "C(S3)(x)C[S3]"])
def test_resumed_split_matches_the_peel(label, monkeypatch):
    ctx = context(label)
    alg, table = ctx.algebra, ctx.table
    with monkeypatch.context() as patch:
        patch.setattr(corep, "_split", peel_split)
        peeled = irrep_table(alg, ctx.haar, ctx.grams.gram_right)
    assert table.labels == peeled.labels
    assert table.dims() == peeled.dims()
    assert table.multiplicities == peeled.multiplicities
    assert np.abs(table.characters - peeled.characters).max() < 1e-12
    fusion = solve_cg_systems(table, table, table)
    peeled_fusion = solve_cg_systems(peeled, peeled, peeled)
    assert {key: system.multiplicities for key, system in fusion.items()} == {
        key: system.multiplicities for key, system in peeled_fusion.items()}
    for ours, theirs in zip(table, peeled):
        phi = are_equivalent(ours, theirs, table)
        assert phi is not None, ours.label
        assert np.linalg.matrix_rank(phi) == ours.dim, ours.label
        gap = (np.tensordot(phi, ours.coeffs, axes=(1, 0))
               - np.tensordot(theirs.coeffs, phi, axes=(1, 0)).transpose(0, 2, 1))
        assert np.abs(gap).max() < 1e-9 * alg.magnitude * np.abs(phi).max(), ours.label
