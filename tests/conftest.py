import cmath

import numpy as np
import pytest

from simpow.scalar import ExponentPair, RootOfUnity
from simpow.similarity import JordanEntry, JordanSpec


@pytest.fixture
def intro_spec():
    """7x7 example whose 3rd and 5th powers share a spectrum without being similar."""
    return JordanSpec(
        (
            JordanEntry(RootOfUnity(1, 4), (1, 1)),
            JordanEntry(RootOfUnity(3, 4), (2,)),
            JordanEntry(None, (3,)),
        )
    )


@pytest.fixture
def intro_matrix():
    i = 1j
    a = np.zeros((7, 7), dtype=complex)
    a[0, 0] = a[1, 1] = i
    a[2, 2] = a[3, 3] = -i
    a[2, 3] = 1.0
    a[4, 5] = a[5, 6] = 1.0
    return a


@pytest.fixture
def nondiag_fixture():
    """4x4 non-diagonalizable solution pair of B^-1 A^2 B = A^3.

    Returns (A, B, C, lam, alpha) with C = B^-1 A B; C is not a power of A.
    """
    lam = cmath.exp(2j * cmath.pi / 5)
    alpha = 1.5 * cmath.exp(6j * cmath.pi / 5)
    lamb, alphab = lam.conjugate(), alpha.conjugate()
    a = np.array(
        [[lam, 1, 0, 0], [0, lam, 0, 0], [0, 0, lamb, 1], [0, 0, 0, lamb]],
        dtype=complex,
    )
    b = np.array(
        [[0, 0, 1, 0], [0, 0, 0, alphab], [1, 0, 0, 0], [0, alpha, 0, 0]],
        dtype=complex,
    )
    c = np.array(
        [[lamb, alpha, 0, 0], [0, lamb, 0, 0], [0, 0, lam, alphab], [0, 0, 0, lam]],
        dtype=complex,
    )
    return a, b, c, lam, alpha


@pytest.fixture
def pq23():
    return ExponentPair(2, 3)


def max_abs(m) -> float:
    return float(np.max(np.abs(m)))
