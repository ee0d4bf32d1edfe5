"""The resuming commutant split gives the recursive peel's tables bit for bit.

``corep._split`` resumes each piece at the scan position after the part
that cut its parent; ``oracles.peel_split`` restarts every piece at the
first operator.  Every earlier part is scalar on the parent, so both find
the same cuts and the same eigenvectors, and ``irrep_table`` built on either
must agree exactly: coefficients, labels and multiplicities.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import alternating_group_4, dihedral_group
from oracles import peel_split, tensor_product_algebra

from cqglab import corep
from cqglab.corep import irrep_table
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
    monkeypatch.setattr(corep, "_split", peel_split)
    peeled = irrep_table(alg, h, gram)
    assert table.labels == peeled.labels
    assert table.multiplicities == peeled.multiplicities
    assert len(table) == len(peeled)
    for ours, theirs in zip(table, peeled):
        assert np.array_equal(ours.coeffs, theirs.coeffs), ours.label
