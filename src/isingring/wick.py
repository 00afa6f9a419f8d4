"""Vacuum expectation values of fermion operator products via Wick's theorem.

Momentum modes live on one of two grids attached to the fermion parity
sectors of the periodic Ising chain.  Modes of the same sector obey the
canonical anticommutators; modes from different sectors have the nonzero
cross contraction

    <vac| c_{k,s} c^dag_{k',s'} |vac> = (2/N) / (exp(i(k - k')) - 1),  s != s'.

A :class:`FermionWord` is an ordered product of L linear forms in the 2N
mode operators, held as two (L, 2N) coefficient arrays, one for the
annihilators and one for the creators.  Their columns follow the one slot
order that :func:`mode_slot` defines and the contraction kernel shares.
The word's vacuum expectation is the Pfaffian of the L x L matrix of
pairwise contractions, ``ann K cre^T`` above the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pfaffian import pfaffian

__all__ = ["EVEN", "ODD", "ModeIndex", "FermionWord", "mode_slot", "vacuum_expectation"]

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


def mode_slot(index, n_sites: int):
    """Column of the mode with integer grid index ``index`` (scalar or array) in the 2N-mode basis.

    The sector follows from the index parity (odd: even sector, even: odd
    sector), so ``(m + N)//2 + N [odd sector]`` puts the even-sector modes
    in columns 0..N-1 and the odd-sector modes, -pi first, in N..2N-1, each
    in ascending momentum.  Every word row and :func:`_full_kernel` use
    this order.
    """
    index = np.asarray(index)
    return (index + n_sites) // 2 + n_sites * (index % 2 == 0)


@dataclass(frozen=True, eq=False)
class FermionWord:
    """An ordered product of L linear forms in the 2N mode operators.

    Row i of ``ann`` holds the coefficients of the annihilators in factor i,
    row i of ``cre`` those of the creators, both (L, 2N) in
    :func:`mode_slot` order.
    """

    ann: np.ndarray
    cre: np.ndarray

    def __len__(self):
        return len(self.ann)

    def __add__(self, other: "FermionWord") -> "FermionWord":
        """The product ``self other``: rows concatenated."""
        return FermionWord(np.vstack([self.ann, other.ann]), np.vstack([self.cre, other.cre]))

    def dagger(self) -> "FermionWord":
        """The adjoint product: rows reversed, coefficients conjugated, ann and cre swapped."""
        return FermionWord(self.cre[::-1].conj(), self.ann[::-1].conj())


@lru_cache(maxsize=8)
def _full_kernel(n_sites: int) -> np.ndarray:
    """Contractions ``<vac| c_a c^dag_b |vac>`` over the full 2N-mode basis in slot order."""
    n = n_sites
    index = np.empty(2 * n, dtype=int)
    index[mode_slot(np.arange(-n, n), n)] = np.arange(-n, n)
    momenta = np.pi * index / n
    odd = index % 2 == 0
    same = odd[:, None] == odd[None, :]
    dk = momenta[:, None] - momenta[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (2.0 / n) / (np.exp(1j * dk) - 1.0)
    return np.where(same, np.eye(2 * n, dtype=complex), cross)


def vacuum_expectation(w: FermionWord) -> complex:
    """Vacuum expectation value of an ordered operator product.

    Wick's theorem assembles all pairwise contractions into the Pfaffian of
    the L x L skew matrix whose upper triangle is ``ann K cre^T``, with K the
    contraction kernel.  Odd-length words vanish by parity; the empty word
    gives 1.
    """
    length = len(w)
    if length % 2 != 0:
        return 0.0 + 0.0j
    if length == 0:
        return 1.0 + 0.0j
    contractions = w.ann @ _full_kernel(w.ann.shape[1] // 2) @ w.cre.T
    upper = np.triu(contractions, 1)
    return pfaffian(upper - upper.T)
