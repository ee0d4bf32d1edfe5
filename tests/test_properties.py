"""Property tests: the irrep table does not depend on how the group is labelled."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beds import alternating_elements, closure, compose

from cqglab.corep import irrep_table
from cqglab.groups import GroupTable, build_function_algebra
from cqglab.haar import gram_matrices, solve_haar


GROUPS = {
    "S3": closure([(1, 0, 2), (1, 2, 0)]),
    "D4": closure([(1, 2, 3, 0), (0, 3, 2, 1)]),
    "A4": alternating_elements(4),
}


def _table(elems, relabel):
    """Irrep table of C(G) with element ``i`` renamed ``relabel[i]``."""
    index = {p: relabel[i] for i, p in enumerate(elems)}
    table = np.zeros((len(elems), len(elems)), dtype=int)
    for p in elems:
        for q in elems:
            table[index[p], index[q]] = index[compose(p, q)]
    alg = build_function_algebra(GroupTable(len(elems), table))
    h = solve_haar(alg)
    return alg, h, gram_matrices(alg, h).gram_right


def _character_multisets(table):
    out = []
    for pi in table:
        chi = np.round(np.einsum("jjm->m", pi.coeffs), 9) + 0.0
        out.append(tuple(sorted(zip(chi.real.tolist(), chi.imag.tolist()))))
    return sorted(out)


REFERENCE = {name: irrep_table(*_table(elems, list(range(len(elems)))))
             for name, elems in GROUPS.items()}


@pytest.mark.parametrize("name", sorted(GROUPS))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_table_invariant_under_relabelling(name, data):
    elems = GROUPS[name]
    rest = data.draw(st.permutations(range(1, len(elems))), label="relabelling")
    alg, h, gram = _table(elems, [0, *rest])
    first = irrep_table(alg, h, gram)
    second = irrep_table(alg, h, gram)
    ref = REFERENCE[name]
    assert first.dims() == ref.dims()
    assert first.multiplicities == ref.multiplicities
    assert _character_multisets(first) == _character_multisets(ref)
    for pi, rho in zip(first, second):
        assert np.array_equal(pi.coeffs, rho.coeffs)
        assert np.array_equal(pi.F, rho.F)
