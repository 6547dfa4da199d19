"""Fock sector enumeration, indexing, and elementary operators."""

import math

import numpy as np
import pytest

from noonring.fock import FockBasis, QuantumState, enumerate_basis, hop_entries


@pytest.mark.parametrize("n_total,size", [
    (0, 1), (1, 4), (2, 10), (3, 20), (5, 56), (7, 120), (15, 816),
])
def test_sector_size_is_binomial(n_total, size):
    basis = enumerate_basis(n_total)
    assert len(basis) == size == math.comb(n_total + 3, 3)


def test_states_sorted_and_indexed(basis5):
    states = list(basis5)
    assert states == sorted(states)
    for k, occ in enumerate(states):
        assert sum(occ) == 5
        assert basis5.index_of(occ) == k
        assert tuple(basis5.occupations[k]) == occ


def test_negative_total_rejected():
    with pytest.raises(ValueError):
        FockBasis(-1)


def test_index_of_rejects_wrong_sector(basis3):
    with pytest.raises(ValueError):
        basis3.index_of((1, 1, 1, 1))


def test_occupation_array_matches_states(basis3):
    assert basis3.occupations.shape == (len(basis3), 4)
    for k, occ in enumerate(basis3):
        assert tuple(basis3.occupations[k]) == occ


def test_from_fock_is_one_hot(basis3):
    state = QuantumState.from_fock(basis3, (1, 0, 2, 0))
    k = basis3.index_of((1, 0, 2, 0))
    expected = np.zeros(len(basis3), dtype=complex)
    expected[k] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected)
    assert state.norm() == pytest.approx(1.0)


def test_overlap_and_normalization(basis2):
    rng = np.random.default_rng(11)
    for _ in range(10):
        raw = rng.normal(size=len(basis2)) + 1j * rng.normal(size=len(basis2))
        state = QuantumState(basis2, raw).normalized()
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert state.overlap(state) == pytest.approx(1.0, abs=1e-12)


def test_hop_matrix_elements(basis3):
    rows, columns, values = hop_entries(basis3, 2, 1)  # a1† a2
    entries = {int(col): (int(row), value) for row, col, value in zip(rows, columns, values)}
    assert len(entries) == len(columns)   # at most one entry per column
    src = basis3.index_of((1, 2, 0, 0))
    dst = basis3.index_of((2, 1, 0, 0))
    # a1† a2 |1,2,0,0> = sqrt(2) * sqrt(2) |2,1,0,0>
    assert entries[src] == (dst, pytest.approx(math.sqrt(2) * math.sqrt(2)))
    # One entry in each column with n2 > 0, amplitude sqrt(n2 (n1+1)).
    for col, occ in enumerate(basis3):
        if occ[1] == 0:
            assert col not in entries
        else:
            row, value = entries[col]
            assert tuple(basis3.occupations[row]) == (occ[0] + 1, occ[1] - 1, occ[2], occ[3])
            assert value == pytest.approx(math.sqrt(occ[1] * (occ[0] + 1)))


def test_hop_matrices_are_adjoint_pairs(basis3):
    def entries(from_site, to_site):
        rows, columns, values = hop_entries(basis3, from_site, to_site)
        return dict(zip(zip(rows.tolist(), columns.tolist()), values))

    forward = entries(2, 1)
    backward = {(col, row): value for (row, col), value in entries(1, 2).items()}
    assert forward.keys() == backward.keys()
    for key, value in forward.items():
        assert value == pytest.approx(backward[key], abs=1e-15)


def test_quantum_state_shape_check(basis2):
    with pytest.raises(ValueError):
        QuantumState(basis2, np.zeros(3))
