"""Pfaffians of complex skew-symmetric matrices.

The Pfaffian is computed by a blocked Parlett-Reid style skew-symmetric
elimination with partial pivoting (the scheme of Wimmer's PFAPACK, ACM TOMS
38, 30 (2012)).  Step k picks the largest entry of column k below the
diagonal as pivot, swaps it into row and column k + 1, and removes rows and
columns k and k + 1 with the rank-2 antisymmetric update
``tau w^T - w tau^T`` of the trailing block.  The Pfaffian is the product of
the pivots times the sign of the accumulated permutation.
Pf(A)^2 = det(A) for every skew-symmetric A.

The updates are delayed over a panel of steps, and kept in the rows the
panel has already eliminated.  Once rows r = k and s = k + 1 of step j are
up to date they hold ``tau`` times the pivot and ``-w``, and nothing writes
them again, so they stay in place.  Each step stores only the two
coefficient rows ``f[2j] = s / pivot`` and ``f[2j + 1] = -r / pivot``, in
one write.  As ``(s_x r_y - r_x s_y) / pivot = tau_x w_y - w_x tau_y``, the
pending update of entry (x, y) at step k is ``f[:2j, x] . m[k0:k, y]``,
over the rows the panel has eliminated since its first row k0.  Bringing a
row up to date before it is read is then one product with those rows.  A
pivot swap of rows and columns k + 1 and l swaps columns k + 1 and l of the
eliminated rows too (``m[k0:, pair]``, not ``m[k:, pair]``), and the same
two columns of f.  At the end of the panel the trailing block receives
``f^T m[k0:ke]`` (ke the first row after the panel) from one matrix
product.
Every panel spans ``_BLOCK_STEPS`` steps, at every matrix size; the last
one spans the steps that are left.

The operand.  An array is validated by :class:`SkewMatrix`, which scans
it for antisymmetry (``|M + M^T|``) and stores its symmetrized copy
``(M - M^T) / 2``.  A matrix that is antisymmetric by construction, such
as the engine's bordered word matrix (see :mod:`isingring.observables`),
enters through :meth:`SkewMatrix.antisymmetric`, which takes only its
largest entry magnitude: no antisymmetry scan and no symmetrized copy.
Every path keeps the shape and border checks and raises ``ValueError`` for
a NaN or infinite entry.  :func:`pfaffian` eliminates in a private copy,
so the operand stays as it was and can be read again.

Border columns.  ``pfaffian(a, border=b)`` searches the pivots only inside
the leading block, of odd dimension d = n - b, and carries the last b
columns along as passive border columns: they are updated like every other
column but never supply a pivot.  So the b even matrices that the block
forms with one border column each share every elimination step.  After
d - 1 eliminated rows each is reduced to the 2 x 2 matrix of the last
block row and its border column, so its Pfaffian is that border entry
times the pivot product.  Wick words that differ in one factor give such
matrices (see :mod:`isingring.observables`).

Small pivots.  Each step tests its largest pivot once, against
``PIVOT_RTOL`` times the largest initial entry magnitude or the smallest
normal double, whichever is larger.  A pivot that fails is measured
again against its own row: the row is spent only if the pivot is at most
``PIVOT_RTOL`` times the largest initial entry of that row of the
operand, found by replaying the steps' pivot swaps.  So a small row, such
as a small block of a block-diagonal matrix, keeps its true pivots.  A
pivot that is not spent but below the smallest normal double has lost
digits and raises ``FloatingPointError``.  A spent row leaves a plain
matrix singular, and its Pfaffian is exactly 0.  In a bordered matrix a
spent row gives exact zeros too if every other row of the leading block
is spent by the same rule; if not, the spent row is the odd block's null
direction, which only the border columns meet, and each result is the
plain Pfaffian of its own even matrix, taken from the operand.
The pivot product is accumulated in Python complex arithmetic, which does
not warn.  A product that is not finite, or falls below the smallest normal
double, raises ``FloatingPointError`` instead of returning a silent NaN or 0.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

__all__ = ["SkewMatrix", "pfaffian", "PfaffianDimensionError", "SkewSymmetryError"]

#: relative tolerance for the antisymmetry check at construction
ASYMMETRY_RTOL = 1e-12
#: a pivot at most this fraction of its row's largest initial entry marks a spent row
PIVOT_RTOL = 1e-13
#: the updates are delayed over panels of this many elimination steps (2 rows and columns each)
_BLOCK_STEPS = 32
#: the smallest normal double: a smaller pivot product has lost digits
_TINY = sys.float_info.min


class PfaffianDimensionError(ValueError):
    """Matrix is not square with even dimension >= 2."""


class SkewSymmetryError(ValueError):
    """Matrix violates antisymmetry beyond tolerance."""


class SkewMatrix:
    """Complex antisymmetric matrix, validated for :func:`pfaffian`.

    With ``border`` = 0 the dimension must be even and >= 2.  With
    ``border`` = b > 0 the last b columns are border columns, and the
    leading block must have odd dimension, so that the block and any one
    border column form an even matrix.

    Construction symmetrizes the input, i.e. stores ``(M - M.T) / 2`` (which
    zeroes the diagonal exactly), and records the largest entry magnitude of
    the input as ``scale`` and the largest asymmetry found.  Asymmetry beyond
    ``ASYMMETRY_RTOL`` times ``scale`` raises :class:`SkewSymmetryError`; a
    NaN or infinite entry raises ``ValueError``.  :meth:`antisymmetric`
    wraps a matrix that needs neither the scan nor the copy.
    """

    def __init__(self, entries, border: int = 0):
        m = self._wrap(entries, border)
        asymmetry = float(np.abs(m + m.T).max())
        if self.scale > 0.0 and asymmetry > ASYMMETRY_RTOL * self.scale:
            raise SkewSymmetryError(
                f"antisymmetry violated: max |M + M.T| = {asymmetry:.3e} "
                f"(largest entry {self.scale:.3e})"
            )
        self.entries = 0.5 * (m - m.T)
        self.max_asymmetry = asymmetry

    @classmethod
    def antisymmetric(cls, entries, border: int = 0) -> "SkewMatrix":
        """Wrap a matrix that is antisymmetric by construction, as it is.

        The caller guarantees ``entries == -entries.T`` exactly.  The
        entries are taken as complex, which copies only real or integer
        input, and are not scanned for antisymmetry.  The shape and border
        are checked, and the largest entry magnitude becomes ``scale``; a
        NaN or infinite entry makes it NaN or infinite, which raises
        ``ValueError``.
        """
        self = cls.__new__(cls)
        self._wrap(entries, border)
        return self

    def _wrap(self, entries, border: int) -> np.ndarray:
        """Take the entries as complex, check shape, border and finiteness, and record them."""
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PfaffianDimensionError(f"expected a square matrix, got shape {m.shape}")
        n = len(m)
        paired = n - border + (border > 0)
        if border < 0 or paired < 2 or paired % 2 != 0:
            raise PfaffianDimensionError(
                f"dimension must be even and >= 2, got {n}" if border == 0 else
                f"dimension {n} leaves no leading block of odd dimension before {border} border columns"
            )
        scale = float(np.abs(m).max())
        if not math.isfinite(scale):
            raise ValueError("matrix entries must be finite")
        self.entries, self.dim, self.border, self.scale, self.max_asymmetry = m, n, border, scale, 0.0
        return m

    def __len__(self):
        return self.dim

    def __repr__(self):
        return f"SkewMatrix(dim={self.dim}, border={self.border}, max_asymmetry={self.max_asymmetry:.3e})"


def _representable(z: complex) -> bool:
    """Finite, and not below the smallest normal double, where digits are lost."""
    return cmath.isfinite(z) and max(abs(z.real), abs(z.imag)) >= _TINY


def pfaffian(a, border: int = 0):
    """Pfaffian of a complex skew-symmetric matrix, or of several bordered ones.

    Parameters
    ----------
    a : SkewMatrix or array_like
        Antisymmetric matrix.  Arrays are validated through
        :class:`SkewMatrix` first; a ``SkewMatrix`` must carry the same
        ``border``.
    border : int
        Number of trailing border columns.  With 0 the result is Pf(a).
        With b > 0 it is a tuple of b Pfaffians, the i-th of the even matrix
        that the leading block (dimension n - b, odd) forms with border
        column i.

    Returns
    -------
    complex or tuple of complex
        Pf(a), with the convention Pf([[0, x], [-x, 0]]) = x.

    Raises
    ------
    FloatingPointError
        If a pivot, the product of the pivots, or a result whose last
        factor is nonzero, is not finite or falls below the smallest normal
        double, except a pivot that spends its row (at most ``PIVOT_RTOL``
        times the row's largest initial entry).

    Notes
    -----
    O(n^3), with the trailing-block updates delayed over panels and the
    pivots searched inside the leading block only.  A pivot at most
    ``PIVOT_RTOL`` times the largest initial entry of its row leaves exact
    zeros or, in a bordered matrix whose leading block is not spent, the
    results' own plain Pfaffians; a larger pivot below the smallest normal
    double raises ``FloatingPointError`` (see the module docstring).
    """
    if not isinstance(a, SkewMatrix):
        a = SkewMatrix(a, border)
    elif a.border != border:
        raise PfaffianDimensionError(f"the SkewMatrix has {a.border} border columns, not {border}")
    m = a.entries.copy()
    n = len(m)
    tol = max(PIVOT_RTOL * a.scale, _TINY)

    # the leading block, in which the pivots are searched, and the rows eliminated
    # from it: all but its last row (all but the last two of an even block)
    d = n - border
    e = d - 2 + d % 2
    # each step's pivot offset, from which a pivot below tol replays the row permutation, and
    # PIVOT_RTOL times the largest initial entry of each leading row, formed at that pivot
    offsets, sizes = [], None
    # the panel's pending updates: step j's (s, -r) / pivot in rows 2j, 2j + 1 (r, s = m[k:k + 2])
    f = np.empty((2 * min(_BLOCK_STEPS, e // 2), n), dtype=complex)
    coefficients = np.empty((2, 1), dtype=complex)
    pf = 1.0 + 0.0j
    for k0 in range(0, e, 2 * _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, (e - k0) // 2)
        for j in range(steps):
            k = k0 + 2 * j
            if j:
                m[k, k + 1:] += f[:2 * j, k] @ m[k0:k, k + 1:]
            mag = np.abs(m[k, k + 1:d])
            rel = int(mag.argmax())
            if mag[rel] < tol:
                if sizes is None:
                    sizes = np.abs(a.entries[:d, :d]).max(axis=1) * PIVOT_RTOL
                # the operand row now in each row of m
                perm = list(range(d))
                for i, r in enumerate(offsets, 1):
                    perm[2 * i - 1], perm[2 * i - 1 + r] = perm[2 * i - 1 + r], perm[2 * i - 1]
                if mag[rel] <= sizes[perm[k]]:
                    if not border:
                        return 0.0 + 0.0j
                    # the rest of the leading block, brought up to date with the panel's pending updates
                    rest = slice(k + 1, d)
                    block = m[rest, rest] + f[:2 * j, rest].T @ m[k0:k, rest]
                    if (np.abs(block).max(axis=1) > sizes[perm[k + 1:]]).any():
                        # the spent row is the block's null direction, met only by the border columns
                        words = (np.r_[:d, c] for c in range(d, n))
                        return tuple(pfaffian(a.entries[np.ix_(w, w)]) for w in words)
                    return (0.0 + 0.0j,) * border
                if mag[rel] < _TINY:
                    raise FloatingPointError(f"pivots below the smallest normal double ({mag[rel]:.3e})")
            offsets.append(rel)
            if rel:
                # swap rows and columns k + 1 and k + 1 + rel, the columns also in the panel's rows and f
                pair, flip = slice(k + 1, k + 2 + rel, rel), slice(k + 1 + rel, k, -rel)
                m[pair, k:] = m[flip, k:]
                m[k0:, pair] = m[k0:, flip]
                f[:2 * j, pair] = f[:2 * j, flip]
                pf = -pf
            if j:
                m[k + 1, k + 2:] += f[:2 * j, k + 1] @ m[k0:k, k + 2:]
            # Python complex arithmetic: an over- or underflow here raises no numpy warning
            pivot = complex(m[k, k + 1])
            pf *= pivot
            coefficients[0, 0], coefficients[1, 0] = 1.0 / pivot, -1.0 / pivot
            np.multiply(m[k:k + 2, k + 2:][::-1], coefficients, out=f[2 * j:2 * j + 2, k + 2:])
        # the panel's delayed rank-2 updates
        ke = k0 + 2 * steps
        m[ke:, ke:] += f[:2 * steps, ke:].T @ m[k0:ke, ke:]
    # the last block row: its entry right of the block, or its border entries
    last = m[e, e + 1:].tolist()
    values = [pf * x for x in last]
    if not _representable(pf) or any(x and not _representable(v) for x, v in zip(last, values)):
        raise FloatingPointError(
            f"the product of the pivots ({pf}) or a result ({values}) over- or underflows double precision"
        )
    return tuple(values) if border else values[0]
