"""Shared fixtures: Fock sectors, dynamics and the two benchmark coupling sets."""

import pytest

from noonring.fock import enumerate_basis
from noonring.protocols import FullDynamics, IdealDynamics

# Couplings are angular frequencies (X/hbar in rad/s), ring of M + P bosons.
SET1 = {"u": 75.876, "j": 24.886, "mu": 20.870}
SET2 = {"u": 76.519, "j": 73.219, "mu": 15.168}
M_OCC = 4
P_OCC = 11


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
