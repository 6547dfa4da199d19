"""Shared fixtures (Fock sectors, dynamics, the two benchmark coupling sets) and
the dense forms of the package's operators: a dense matrix as a
HermitianOperator, and the normal-mode change of basis as a matrix."""

import numpy as np
import pytest

from noonring.fock import QuantumState, enumerate_basis
from noonring.model import HermitianOperator
from noonring.protocols import FullDynamics, IdealDynamics

# Couplings are angular frequencies (X/hbar in rad/s), ring of M + P bosons.
SET1 = {"u": 75.876, "j": 24.886, "mu": 20.870}
SET2 = {"u": 76.519, "j": 73.219, "mu": 15.168}
M_OCC = 4
P_OCC = 11


def dense_operator(basis, matrix, check=True):
    """A dense site-basis matrix as the one-block HermitianOperator."""
    return HermitianOperator(basis, [(np.arange(basis.size)[None], matrix[None])], check)


def mode_matrix(modes):
    """W with psi_site = W psi_mode, built column by column from unit mode states."""
    return np.column_stack([
        modes.change(QuantumState(modes.basis, unit), modes.sites).amplitudes
        for unit in np.eye(modes.basis.size)])


@pytest.fixture(scope="session")
def basis15():
    return enumerate_basis(15)


@pytest.fixture(scope="session")
def full15(basis15):
    """One FullDynamics for every theta sweep: each Hamiltonian is diagonalized once."""
    return FullDynamics(basis15)


@pytest.fixture(scope="session")
def ideal15(basis15):
    return IdealDynamics(basis15)


@pytest.fixture(scope="session")
def basis5():
    return enumerate_basis(5)


@pytest.fixture(scope="session")
def basis3():
    return enumerate_basis(3)


@pytest.fixture(scope="session")
def basis2():
    return enumerate_basis(2)


@pytest.fixture(scope="session")
def set1():
    return dict(SET1)


@pytest.fixture(scope="session")
def set2():
    return dict(SET2)
