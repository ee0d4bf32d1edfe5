"""The range solver on synthetic idempotents of known rank.

``corep._range_basis`` takes the column space of each matrix of a stack from
one batched SVD: the left singular vectors whose singular value is above
``rcond * max(sigma_max, 1)``.  Every idempotent here is oblique,
``P = X Z^H`` with ``Z^H X = I``, so its range is ``span X``, its rank is
known by construction and its nonzero singular values are at least 1.  Column
norms run from 1e-6 to 1e6, some columns are exact duplicates, and the ranks
differ across one stack.

In the hidden case every column is about 1e6 along one range direction and
O(1) along the other, so the second direction is a singular value of order 1
beside one of order 1e6, still far above the cut of about 1e-3.  The property
test draws oblique idempotents of random rank and size up to 300, the largest
family-space system of C(A5).

A matrix whose Frobenius norm is at most ``rcond / 2`` skips the SVD (rank 0).
The screen is checked against the unscreened solver, bit for bit, on stacks
that mix exact zeros, idempotents and maps whose norms sit just above and just
below both the screen and the rank cut.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqglab.corep import _range_basis

N = 8


def _unitary(rng, size: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    return q


def _spread_idempotent(rng, rank: int, duplicate: bool) -> tuple[np.ndarray, np.ndarray]:
    """``P = X Z^H`` with ``X`` orthonormal on the first ``rank + 1`` coordinates
    (all of them when ``rank >= N - 1``); the other columns have norms spread
    from 1e-6 to 1e6, and with ``duplicate`` two of them are equal.  Rows and
    columns are then permuted together, which keeps ``P`` idempotent."""
    support = min(rank + 1, N)
    x = np.zeros((N, rank), dtype=complex)
    x[:support] = _unitary(rng, support)[:, :rank]
    z_h = np.zeros((rank, N), dtype=complex)
    z_h[:, :support] = x[:support].conj().T                 # Z^H X = I on the support
    outside = N - support
    scales = np.logspace(-6, 6, outside) if outside > 1 else np.full(outside, 1e6)
    free = rng.standard_normal((rank, outside)) + 1j * rng.standard_normal((rank, outside))
    z_h[:, support:] = free * scales
    if duplicate:                                           # keeps both ends of the spread
        z_h[:, support + 2] = z_h[:, support + 1]
    perm = rng.permutation(N)
    return (x @ z_h)[np.ix_(perm, perm)], x[perm]


def _hidden_idempotent(rng) -> tuple[np.ndarray, np.ndarray]:
    """``P = x1 a1^H + x2 x2^H`` with ``a1 = x1 + 1e6 v``, ``v`` a unit vector
    orthogonal to ``x1`` and ``x2``: columns about 1e6 along ``x1`` and O(1)
    along ``x2``."""
    x1, x2, v = _unitary(rng, N)[:, :3].T
    a1 = x1 + 1e6 * v
    x = np.stack([x1, x2], axis=1)
    return np.outer(x1, a1.conj()) + np.outer(x2, x2.conj()), x


def _stack(seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    rng = np.random.default_rng(seed)
    cases = [_spread_idempotent(rng, 1, duplicate=True),
             _spread_idempotent(rng, 3, duplicate=True),
             _spread_idempotent(rng, N - 1, duplicate=False),
             (np.eye(N, dtype=complex), np.eye(N, dtype=complex)),   # rank N: only I
             _hidden_idempotent(rng)]
    return np.stack([p for p, _ in cases]), [x for _, x in cases]


def _projector(columns: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(columns)
    return q @ q.conj().T


def test_synthetic_idempotents_are_idempotent():
    for seed in range(5):
        mats, ranges = _stack(seed)
        for p, x in zip(mats, ranges):
            scale = np.abs(p).max()
            assert np.abs(p @ p - p).max() <= 1e-9 * scale ** 2 + 1e-12
            assert np.abs(p @ x - x).max() <= 1e-9 * scale
        norms = np.linalg.norm(mats[:2], axis=1)
        assert norms.min() < 1e-5 and norms.max() > 1e5


def test_exact_rank_and_range_projector():
    for seed in range(5):
        mats, ranges = _stack(seed)
        vecs, ranks = _range_basis(mats, 1e-9)
        assert ranks == [1, 3, N - 1, N, 2], seed
        start = 0
        for rank, x in zip(ranks, ranges):
            basis = vecs[start:start + rank]
            start += rank
            assert np.abs(basis.conj() @ basis.T - np.eye(rank)).max() < 1e-12, seed
            assert np.abs(basis.T @ basis.conj() - _projector(x)).max() < 1e-8, (seed, rank)


def test_stack_solves_like_single_matrices():
    mats, _ = _stack(0)
    vecs, ranks = _range_basis(mats, 1e-9)
    start = 0
    for mat, rank in zip(mats, ranks):
        single, (single_rank,) = _range_basis(mat[None], 1e-9)
        assert single_rank == rank
        assert np.abs(vecs[start:start + rank] - single).max() < 1e-12
        start += rank


def test_zero_and_empty_columns():
    vecs, ranks = _range_basis(np.zeros((2, 3, 3), dtype=complex), 1e-9)
    assert ranks == [0, 0] and vecs.shape == (0, 3)


@settings(max_examples=20, deadline=None)
@given(size=st.integers(1, 300), data=st.data())
def test_random_oblique_idempotents(size, data):
    """``P = Q Z^H`` with ``Q`` orthonormal and ``Z^H = Q^H + B (I - Q Q^H)``, so
    ``Z^H Q = I``; the scale of ``B`` sets how oblique ``P`` is."""
    ranks = data.draw(st.lists(st.integers(0, size), min_size=1, max_size=3))
    skew = data.draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    mats, ranges = [], []
    for rank in ranks:
        q = _unitary(rng, size)[:, :rank]
        b = skew * (rng.standard_normal((rank, size)) + 1j * rng.standard_normal((rank, size)))
        mats.append(q @ (q.conj().T + b @ (np.eye(size) - q @ q.conj().T)))
        ranges.append(q)
    vecs, got = _range_basis(np.stack(mats), 1e-9)
    assert got == ranks
    start = 0
    for rank, q in zip(ranks, ranges):
        basis = vecs[start:start + rank]
        start += rank
        assert np.abs(basis.T @ basis.conj() - q @ q.conj().T).max() < 1e-8, (size, rank, skew)


def _unscreened(mats: np.ndarray, rcond: float) -> tuple[np.ndarray, list[int]]:
    """The range solver with every matrix in one batched SVD, no norm screen."""
    u, sigma, _ = np.linalg.svd(mats)
    keep = sigma > rcond * np.maximum(sigma[:, :1], 1.0)
    return u.transpose(0, 2, 1)[keep], keep.sum(axis=1).tolist()


def _near_cut_stack(rng, size: int, rcond: float) -> np.ndarray:
    """Exact zeros, oblique idempotents of every rank, and random maps of rank 1 and
    full rank scaled to Frobenius norms at and around ``rcond / 2`` and ``rcond``."""
    mats = [np.zeros((size, size), dtype=complex)] * 3
    for rank in range(size + 1):
        q = _unitary(rng, size)[:, :rank]
        b = rng.standard_normal((rank, size)) + 1j * rng.standard_normal((rank, size))
        mats.append(q @ (q.conj().T + b @ (np.eye(size) - q @ q.conj().T)))
    for norm in (rcond / 2, rcond):
        for factor in (1 - 1e-3, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-3, 1.5):
            for rank in (1, size):
                x = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
                y = rng.standard_normal((rank, size)) + 1j * rng.standard_normal((rank, size))
                mat = x @ y
                mats.append(mat * (norm * factor / np.linalg.norm(mat)))
    return np.stack([mats[i] for i in rng.permutation(len(mats))])


@pytest.mark.parametrize("rcond", [1e-9, 1e-3])
@pytest.mark.parametrize("size", [1, 2, 5])
def test_norm_screen_is_bit_identical_to_the_unscreened_solver(monkeypatch, size, rcond):
    svd, sent = np.linalg.svd, []

    def counting(mats, *args, **kwargs):
        sent.append(len(mats))
        return svd(mats, *args, **kwargs)

    for seed in range(4):
        mats = _near_cut_stack(np.random.default_rng(seed), size, rcond)
        expected_vecs, expected_ranks = _unscreened(mats, rcond)
        sent.clear()
        monkeypatch.setattr(np.linalg, "svd", counting)
        vecs, ranks = _range_basis(mats, rcond)
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert ranks == expected_ranks
        assert vecs.shape == expected_vecs.shape
        assert vecs.tobytes() == expected_vecs.tobytes()
        # the zeros and the maps below the screen skip the SVD; the rest go in one call
        screened = np.linalg.norm(mats, axis=(1, 2)) <= rcond / 2
        assert sent == [len(mats) - screened.sum()]
        # the zeros (three, and the rank-0 idempotent) and the four maps scaled below
        # the screen skip it; the four at it up to rounding may go either way
        assert 8 <= screened.sum() <= 12
        # above the screen but below the rank cut, a map still has rank 0
        assert max(ranks) == size and 0 in [r for r, s in zip(ranks, screened) if not s]


def test_a_nan_map_still_reaches_the_svd():
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _range_basis(mats, 1e-9)
