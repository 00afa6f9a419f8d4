"""Vacuum expectation values of fermion operator products via Wick's theorem.

Momentum modes live on one of two grids attached to the fermion parity
sectors of the periodic Ising chain: the mode with integer grid index m has
momentum k = pi m / N, odd m on the even sector's half-integer grid and even
m on the odd sector's integer grid.  Modes of the same sector obey the
canonical anticommutators; modes from different sectors have the nonzero
cross contraction

    <vac| c_{k,s} c^dag_{k',s'} |vac> = (2/N) / (exp(i(k - k')) - 1),  s != s'.

Both cases depend on the index difference d = m - m' alone, through

    kappa(d) = delta_{d,0}                   for even d (same sector),
    kappa(d) = (2/N) / (exp(i pi d/N) - 1)   for odd d (different sectors).

A word is an ordered product of L one-mode factors ``a_i c_{m_i} +
b_i c^dag_{m'_i}``, held as two (2, L) arrays: the grid indices ``(m, m')``
and the coefficients ``(a, b)``, a zero coefficient leaving that part out.
The contraction of factors i < j is ``a_i kappa(m_i - m'_j) b_j``, and the
word's vacuum expectation is the Pfaffian of the L x L matrix of these
contractions above the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pfaffian import pfaffian

__all__ = ["EVEN", "ODD", "ModeIndex", "contractions", "vacuum_expectation"]

#: sector labels: EVEN carries the half-integer grid, ODD the integer grid
EVEN, ODD = +1, -1


@dataclass(frozen=True)
class ModeIndex:
    """A momentum mode identified by sector and integer grid index.

    The physical momentum is ``pi * index / n_sites``.  Even-sector momenta
    have odd ``index`` (half-integer grid, excludes 0 and -pi); odd-sector
    momenta have even ``index`` (integer grid, includes -pi and 0).  Storing
    the integer index keeps set membership and k -> -k exact.
    """

    sector: int
    index: int
    n_sites: int

    def __post_init__(self):
        n = self.n_sites
        if n < 4 or n % 2 != 0:
            raise ValueError(f"n_sites must be even and >= 4, got {n}")
        if self.sector not in (EVEN, ODD):
            raise ValueError(f"sector must be +1 or -1, got {self.sector}")
        if not -n <= self.index < n:
            raise ValueError(f"index {self.index} out of range for N={n}")
        if self.sector == EVEN and self.index % 2 == 0:
            raise ValueError(f"even-sector index must be odd, got {self.index}")
        if self.sector == ODD and self.index % 2 != 0:
            raise ValueError(f"odd-sector index must be even, got {self.index}")

    @property
    def momentum(self) -> float:
        return np.pi * self.index / self.n_sites

    def negate(self) -> "ModeIndex":
        """The mode at momentum -k (k = -pi is self-conjugate)."""
        m = -self.index if self.index != -self.n_sites else self.index
        return ModeIndex(self.sector, m, self.n_sites)


def contractions(index, coeff, n_sites: int) -> np.ndarray:
    """The L x L matrix ``a_i kappa(m_i - m'_j) b_j`` of a word's factor contractions.

    ``index`` holds the annihilated and created grid indices ``(m, m')`` of
    the L factors, each in [-N, N), and ``coeff`` their coefficients
    ``(a, b)``, both shaped (2, L).  kappa is tabulated once over
    d in (-2N, 2N) and gathered; the cross formula is evaluated on odd d
    only, where its denominator cannot vanish.
    """
    n = n_sites
    d = np.arange(1 - 2 * n, 2 * n)
    kappa = (d == 0).astype(complex)
    cross = d % 2 != 0
    kappa[cross] = (2.0 / n) / (np.exp(1j * np.pi * d[cross] / n) - 1.0)
    (ann, cre), (a, b) = np.asarray(index), np.asarray(coeff)
    return a[:, None] * kappa[ann[:, None] - cre + (2 * n - 1)] * b


def vacuum_expectation(contracted: np.ndarray) -> complex:
    """Vacuum expectation value of an ordered product of L factors.

    ``contracted`` is the word's L x L contraction matrix, as from
    :func:`contractions`; only its upper triangle is read.  Wick's theorem
    makes the expectation the Pfaffian of the skew matrix with that upper
    triangle.  Odd-length words vanish by parity; the empty word gives 1.
    """
    length = len(contracted)
    if length % 2 != 0:
        return 0.0 + 0.0j
    if length == 0:
        return 1.0 + 0.0j
    upper = np.triu(contracted, 1)
    return pfaffian(upper - upper.T)
