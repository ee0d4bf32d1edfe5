"""The commutant split and the recursive peel give the same irrep table up to the
choice of representatives.

``corep._split`` cuts the carrier by one fixed combination of all the
commutant parts; ``oracles.peel_split`` cuts by one part at a time and
restarts every piece at the first operator.  The two choose different
orthonormal bases for the pieces, so the representatives' coefficients
differ; everything a correct split determines must agree: labels,
dimensions and multiplicities, characters (to 1e-12), the fusion
multiplicities of every pair, and an invertible intertwiner from each of
our representatives to the peel's.  (The test keeps its name from when both
splits made the same cuts and were compared bit for bit.)
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import alternating_group_4, dihedral_group
from oracles import peel_split, tensor_product_algebra

from cqglab import corep
from cqglab.cg import solve_cg_systems
from cqglab.corep import are_equivalent, irrep_table
from cqglab.groups import (GroupTable, all_permutation_group, build_function_algebra,
                           build_group_algebra, builtin_algebras, symmetric_group_3)
from cqglab.haar import gram_matrices, solve_haar


def _relabelled(group: GroupTable, seed: int) -> GroupTable:
    """The group with the identity kept at 0 and the other elements renamed at random."""
    labels = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(group.order - 1)])
    table = np.empty_like(group.table)
    table[np.ix_(labels, labels)] = labels[group.table]
    return GroupTable(group.order, table)


def _beds() -> dict:
    beds = builtin_algebras()
    groups = {"D4": dihedral_group(4), "D5": dihedral_group(5), "D6": dihedral_group(6),
              "A4": alternating_group_4()}
    for name, group in groups.items():
        for seed in (1, 2):
            beds[f"C({name})/{seed}"] = build_function_algebra(_relabelled(group, seed))
            beds[f"C[{name}]/{seed}"] = build_group_algebra(_relabelled(group, seed))
    s3, s4 = symmetric_group_3(), all_permutation_group(4)
    beds["C(S4)"] = build_function_algebra(s4)
    beds["C[S4]"] = build_group_algebra(s4)
    beds["C(S3)(x)C[S3]"] = tensor_product_algebra(build_function_algebra(s3),
                                                   build_group_algebra(s3))
    return beds


BEDS = _beds()


@pytest.mark.parametrize("label", list(BEDS))
def test_resumed_split_matches_the_peel(label, monkeypatch):
    alg = BEDS[label]
    h = solve_haar(alg)
    gram = gram_matrices(alg, h).gram_right
    table = irrep_table(alg, h, gram)
    with monkeypatch.context() as patch:
        patch.setattr(corep, "_split", peel_split)
        peeled = irrep_table(alg, h, gram)
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
