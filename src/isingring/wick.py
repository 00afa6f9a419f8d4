"""Vacuum expectation values of fermion operator products via Wick's theorem.

Momentum modes are named by their integer grid index m alone, with
momentum k = pi m / N: odd m on the even sector's half-integer grid and
even m on the odd sector's integer grid (see
:class:`isingring.model.MomentumGrid`).  Modes of the same sector obey the
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
word's vacuum expectation is the Pfaffian of the antisymmetric L x L matrix
with these contractions above the diagonal.  Words that differ in one
factor, and words of equal length, evaluate together
(:func:`vacuum_expectation`).
"""

from __future__ import annotations

import numpy as np

from .model import MomentumGrid, _integer
from .pfaffian import SkewMatrix, Workspace, pfaffian

__all__ = ["contractions", "vacuum_expectation"]


def contractions(index, coeff, grid: MomentumGrid, out=None, workspace: Workspace | None = None) -> np.ndarray:
    """The matrix ``a_i kappa(m_i - m'_j) b_j`` of annihilated parts i against created parts j.

    ``index`` holds the annihilated and created grid indices ``(m, m')``,
    each in [-N, N) (another raises ``IndexError``), and ``coeff`` their
    coefficients ``(a, b)``.  For the L factors of one word both are
    (2, L) arrays and the result is the word's L x L contraction matrix, of
    which the upper triangle counts; the annihilated parts of some factors
    against the created parts of later ones give a rectangular block of
    it.  Coefficient arrays with a
    leading axis give the blocks of a stack of words on the same indices,
    from one gather.  kappa is gathered from the ring's table
    :attr:`MomentumGrid.kappa`, which every d = m - m' in (-2N, 2N)
    indexes directly.

    The result is written into ``out`` when it is given, and returned.  The
    index differences, the gathered kappa and its product with ``a`` are
    taken in ``workspace`` and freed there again.
    """
    ann, cre, a, b = map(np.asarray, (*index, *coeff))
    n = grid.n_sites
    # the gather below wraps any difference into the table, so an index outside it raises here; the
    # grid's own index tables are in range
    if (ann is not grid.ann or cre is not grid.cre) and ann.size and cre.size and not (
            -n <= min(ann.min(), cre.min()) and max(ann.max(), cre.max()) < n):
        raise IndexError(f"grid indices must lie in [-{n}, {n})")
    shape = (len(ann), len(cre))
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + shape, dtype=complex)
    space = Workspace() if workspace is None else workspace
    mark = space.top
    difference = np.subtract(ann[:, None], cre, out=space.take(shape, np.intp))
    # "wrap" is numpy's negative indexing for every d in (-2N, 2N), and writes straight into its out
    kappa = grid.kappa.take(difference, out=space.take(shape), mode="wrap")
    scaled = np.multiply(a[..., :, None], kappa, out=space.take(a.shape[:-1] + shape))
    np.multiply(scaled, b[..., None, :], out=out)
    space.top = mark
    return out


def vacuum_expectation(skew: np.ndarray, border: int = 0):
    """Vacuum expectation value of an ordered product of L factors, or of ``border`` such products.

    ``skew`` is the word's contraction matrix (the upper triangle of
    :func:`contractions`), an array or a
    :class:`isingring.pfaffian.SkewMatrix`, or any matrix with the same
    Pfaffians, such as the operand of :mod:`isingring.observables`.  With
    ``border`` = b > 0 it holds b words that share the factors of its
    leading block and differ in one more factor, whose row and column come
    last: one border column each.  The result is then a tuple, the i-th
    entry being the expectation of word i times the sign of moving that
    factor to the end.  A (B, L, L) stack of words of equal length gives
    the list of the B results.  Without a border, an odd-length word
    vanishes by parity and the empty word gives 1; with one, every word
    goes to :func:`isingring.pfaffian.pfaffian`, which rejects a leading
    block that is not odd.
    """
    entries = skew.entries if isinstance(skew, SkewMatrix) else np.asarray(skew)
    length, border = entries.shape[-1], _integer(border, "border")
    if border or (length and length % 2 == 0):
        return pfaffian(skew, border)
    value = 0.0 + 0.0j if length % 2 else 1.0 + 0.0j
    return [value] * len(entries) if entries.ndim == 3 else value
