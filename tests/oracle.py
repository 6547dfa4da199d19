"""Brute-force second-quantization oracle used to cross-check the package.

States are plain dictionaries mapping occupation tuples (n1, n2, n3, n4)
to complex amplitudes; operators act symbolically via the bosonic ladder
rules a|n> = sqrt(n)|n-1>, a†|n> = sqrt(n+1)|n+1>.  Nothing here touches
the package's matrix builders, so agreement between the two is a real
consistency check rather than a tautology.  `detuning_operator` is the
dense site-basis reference that the normal-mode detuning is checked against.
"""

import itertools
import math


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
        out[key] = out.get(key, 0j) + amp * math.sqrt(n)
    return out


def create(state, site):
    """Apply a†_site to an amplitude dictionary (site is 1-based)."""
    out = {}
    for occ, amp in state.items():
        n = occ[site - 1]
        new = list(occ)
        new[site - 1] = n + 1
        key = tuple(new)
        out[key] = out.get(key, 0j) + amp * math.sqrt(n + 1)
    return out


def number(state, site):
    return {occ: amp * occ[site - 1] for occ, amp in state.items()}


def add_into(total, state, scale=1.0):
    for occ, amp in state.items():
        total[occ] = total.get(occ, 0j) + scale * amp


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
            out[occ] = out.get(occ, 0j) + amp * diag
    # Hopping: -(J/2) (a1† + a3†)(a2 + a4) + h.c., expanded term by term.
    half_j = 0.5 * couplings["j"]
    for to_site, from_site in [
        (1, 2), (1, 4), (3, 2), (3, 4), (2, 1), (4, 1), (2, 3), (4, 3),
    ]:
        add_into(out, create(annihilate(state, from_site), to_site), -half_j)
    return out


def hamiltonian_matrix(n_total, couplings):
    """Dense Hamiltonian in the sorted sector basis, built column by column."""
    import numpy as np

    states = sector_states(n_total)
    index = {occ: k for k, occ in enumerate(states)}
    dim = len(states)
    matrix = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(states):
        image = apply_hamiltonian({occ: 1.0}, couplings)
        for out_occ, amp in image.items():
            matrix[index[out_occ], col] = amp
    return states, matrix


def site_distribution(state, site):
    """Probability of each occupation value on one site (1-based)."""
    dist = {}
    for occ, amp in state.items():
        n = occ[site - 1]
        dist[n] = dist.get(n, 0.0) + abs(amp) ** 2
    return dist


def detuning_operator(basis):
    """Diagonal matrix of N1 N3 + N2 N4 (integrability-detuning direction) in a FockBasis."""
    import numpy as np

    occ = basis.occupations.astype(float)
    return np.diag(occ[:, 0] * occ[:, 2] + occ[:, 1] * occ[:, 3])
