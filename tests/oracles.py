"""Brute-force oracles that the tests compare the package against.

Each one takes an independent route to a value the package computes in
closed form or by iteration, and is capped at a size where its enumeration
stays cheap.
"""

import itertools

import numpy as np

from chargechain import CapacityError, DomainError, FAMeasure, MeasurableSet
from chargechain.measures import _subset_sums

#: exact subset enumeration is capped at this many states
ORACLE_STATE_CAP = 20


def lattice_inf_oracle(mu1: FAMeasure, mu2: FAMeasure, ev_set: MeasurableSet) -> float:
    """Brute-force value of the infimum on a set: min over C of mu1(C) + mu2(E \\ C).

    Exact enumeration over every subset C of E; independent of the closed
    form of ``lattice_inf``.  Finite spaces only, capped at ORACLE_STATE_CAP states.
    """
    if mu1.space != mu2.space:
        raise DomainError("objects live on different state spaces")
    if not mu1.space.is_finite:
        raise CapacityError("subset oracle needs a finite space")
    n = mu1.space.size
    if n > ORACLE_STATE_CAP:
        raise CapacityError(f"subset oracle capped at {ORACLE_STATE_CAP} states, got {n}")
    members = [x for x in range(n) if ev_set.covers_state(x)]
    k = len(members)
    w1 = np.array([mu1.atoms.get(x, 0.0) for x in members])
    w2 = np.array([mu2.atoms.get(x, 0.0) for x in members])
    s1 = _subset_sums(w1)
    s2 = _subset_sums(w2)
    # complement of submask i within E sits at index (2^k - 1) - i
    return float(np.min(s1 + s2[::-1])) if k else 0.0


def char_poly_second_modulus(matrix) -> float:
    """Second-largest eigenvalue modulus via explicit characteristic polynomial.

    Independent of the iteration/regression path being checked; the
    coefficients come from a permutation expansion of det(tI - P), so this
    stays exact-by-construction up to root finding.  Capped at 4 states.
    """
    p = np.asarray(matrix, dtype=float)
    n = p.shape[0]
    if n > 4:
        raise CapacityError("characteristic-polynomial route capped at 4 states")
    coeffs = np.zeros(n + 1)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        poly = np.array([1.0])
        for i in range(n):
            j = perm[i]
            entry = np.array([-p[i, j], 1.0]) if i == j else np.array([-p[i, j]])
            poly = np.convolve(poly, entry)
        coeffs[: poly.size] += sign * poly
    roots = np.roots(coeffs[::-1])
    mods = sorted((abs(complex(r)) for r in roots), reverse=True)
    return float(mods[1]) if len(mods) > 1 else 0.0


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
