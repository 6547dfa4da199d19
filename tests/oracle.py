"""Brute-force second-quantization oracle: the dense references of the tests.

States are plain dictionaries mapping occupation tuples (n1, n2, n3, n4)
to amplitudes; operators act symbolically via the bosonic ladder
rules a|n> = sqrt(n)|n-1>, a†|n> = sqrt(n+1)|n+1>.  `operator_matrix` turns
any such operator into its dense matrix in the sorted sector basis, which is
the FockBasis order.  Nothing here touches the package's builders, so
agreement between the two is a real consistency check rather than a
tautology.  This module holds every dense site-basis reference the tests
use: the Hamiltonian, the conserved charges Q1 and Q2, both forms of the
effective Hamiltonian H_eff, and the detuning direction N1 N3 + N2 N4 that
the normal-mode blocks are checked against.
"""

import itertools
import math

import numpy as np


def sector_states(n_total):
    """All four-site occupation tuples with the given total, sorted."""
    states = [
        occ
        for occ in itertools.product(range(n_total + 1), repeat=4)
        if sum(occ) == n_total
    ]
    return sorted(states)


def annihilate(state, site):
    """Apply a_site to an amplitude dictionary (site is 1-based)."""
    out = {}
    for occ, amp in state.items():
        n = occ[site - 1]
        if n == 0:
            continue
        new = list(occ)
        new[site - 1] = n - 1
        key = tuple(new)
        out[key] = out.get(key, 0.0) + amp * math.sqrt(n)
    return out


def create(state, site):
    """Apply a†_site to an amplitude dictionary (site is 1-based)."""
    out = {}
    for occ, amp in state.items():
        n = occ[site - 1]
        new = list(occ)
        new[site - 1] = n + 1
        key = tuple(new)
        out[key] = out.get(key, 0.0) + amp * math.sqrt(n + 1)
    return out


def number(state, site):
    return {occ: amp * occ[site - 1] for occ, amp in state.items()}


def add_into(total, state, scale=1.0):
    for occ, amp in state.items():
        total[occ] = total.get(occ, 0.0) + scale * amp


def exchange(state, a, b):
    """(a_a† a_b + a_b† a_a)|state>: one boson exchanged between sites a and b."""
    out = {}
    add_into(out, create(annihilate(state, b), a))
    add_into(out, create(annihilate(state, a), b))
    return out


def apply_hamiltonian(state, couplings):
    """One application of the ring Hamiltonian to an amplitude dictionary.

    couplings is a dict with keys u0, u12, u13, u14, u23, u24, u34, j,
    mu, nu (angular frequencies).
    """
    out = {}
    # On-site: (u0/2) sum_i N_i (N_i - 1)
    for occ, amp in state.items():
        diag = 0.5 * couplings["u0"] * sum(n * (n - 1) for n in occ)
        pairs = {
            "u12": occ[0] * occ[1], "u13": occ[0] * occ[2],
            "u14": occ[0] * occ[3], "u23": occ[1] * occ[2],
            "u24": occ[1] * occ[3], "u34": occ[2] * occ[3],
        }
        for key, value in pairs.items():
            diag += couplings[key] * value
        diag += couplings["mu"] * (occ[1] - occ[3])
        diag += couplings["nu"] * (occ[0] - occ[2])
        if diag != 0.0:
            out[occ] = out.get(occ, 0.0) + amp * diag
    # Hopping: -(J/2) (a1† + a3†)(a2 + a4) + h.c., expanded term by term.
    half_j = 0.5 * couplings["j"]
    for to_site, from_site in [
        (1, 2), (1, 4), (3, 2), (3, 4), (2, 1), (4, 1), (2, 3), (4, 3),
    ]:
        add_into(out, create(annihilate(state, from_site), to_site), -half_j)
    return out


def apply_charge(state, which):
    """Q1 (sites 1, 3) or Q2 (sites 2, 4): 2Q = N_a + N_b - (a† b + a b†)."""
    a, b = {"Q1": (1, 3), "Q2": (2, 4)}[which]
    out = {}
    add_into(out, number(state, a), 0.5)
    add_into(out, number(state, b), 0.5)
    add_into(out, exchange(state, a, b), -0.5)
    return out


def apply_effective_charges(state, n_total, omega):
    """H_eff = (N+1) Omega (Q1 + Q2) - 2 Omega Q1 Q2."""
    out = {}
    add_into(out, apply_charge(state, "Q1"), (n_total + 1) * omega)
    add_into(out, apply_charge(state, "Q2"), (n_total + 1) * omega)
    add_into(out, apply_charge(apply_charge(state, "Q2"), "Q1"), -2.0 * omega)
    return out


def _pair_factor(state, a, b, shift):
    """(N_a + N_b + shift + a_a† a_b + a_b† a_a)|state>."""
    out = {}
    add_into(out, number(state, a))
    add_into(out, number(state, b))
    add_into(out, state, shift)
    add_into(out, exchange(state, a, b))
    return out


def apply_effective_sq(state, m_occ, p_occ, j, u):
    """Second-quantized H_eff of the (M, P) band, as the literal operator product

        H_eff = c+ (N1 + N3 + 2 + a1† a3 + a3† a1)(N2 + N4 + a2† a4 + a4† a2)
              - c- (N1 + N3 + a1† a3 + a3† a1)(N2 + N4 + 2 + a2† a4 + a4† a2)

    of second-order tunneling, c± = J^2/(16U(M - P ± 1)).  Its diagonal part
    shifts the two |M - P| halves of a band differently; restricted to the
    (M, P) band it equals (N+1) Omega (Q1 + Q2) - 2 Omega Q1 Q2 plus a constant.
    """
    c_plus = j**2 / (16.0 * u * (m_occ - p_occ + 1))
    c_minus = j**2 / (16.0 * u * (m_occ - p_occ - 1))
    out = {}
    add_into(out, _pair_factor(_pair_factor(state, 2, 4, 0.0), 1, 3, 2.0), c_plus)
    add_into(out, _pair_factor(_pair_factor(state, 2, 4, 2.0), 1, 3, 0.0), -c_minus)
    return out


def operator_matrix(n_total, apply):
    """Dense matrix of the operator `apply` (a dictionary to a dictionary) in
    the sorted sector basis, built column by column."""
    states = sector_states(n_total)
    index = {occ: k for k, occ in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for col, occ in enumerate(states):
        for out_occ, amp in apply({occ: 1.0}).items():
            matrix[index[out_occ], col] = amp
    return matrix


def hamiltonian_matrix(n_total, couplings):
    """Dense ring Hamiltonian (see `apply_hamiltonian`) in the sorted sector basis."""
    return operator_matrix(n_total, lambda state: apply_hamiltonian(state, couplings))


def charge_matrix(n_total, which):
    """Dense charge Q1 or Q2 (see `apply_charge`) in the sorted sector basis."""
    return operator_matrix(n_total, lambda state: apply_charge(state, which))


def commutator_norm(a, b):
    """Frobenius norm of [A, B]."""
    return float(np.linalg.norm(a @ b - b @ a))


def site_distribution(state, site):
    """Probability of each occupation value on one site (1-based)."""
    dist = {}
    for occ, amp in state.items():
        n = occ[site - 1]
        dist[n] = dist.get(n, 0.0) + abs(amp) ** 2
    return dist


def detuning_operator(basis):
    """Diagonal matrix of N1 N3 + N2 N4 (integrability-detuning direction) in a FockBasis."""
    occ = basis.occupations.astype(float)
    return np.diag(occ[:, 0] * occ[:, 2] + occ[:, 1] * occ[:, 3])
