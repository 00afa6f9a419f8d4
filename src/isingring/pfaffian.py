"""Pfaffians of complex skew-symmetric matrices.

The Pfaffian is computed by a blocked Parlett-Reid style skew-symmetric
elimination with partial pivoting (the scheme of Wimmer's PFAPACK, ACM TOMS
38, 30 (2012)).  Step k picks the largest entry of column k below the
diagonal as pivot, swaps it into row and column k + 1, and removes rows and
columns k and k + 1 with the rank-2 antisymmetric update
``tau w^T - w tau^T`` of the trailing block.  The Pfaffian is the product of
the pivots times the sign of the accumulated permutation.
Pf(A)^2 = det(A) for every skew-symmetric A.

The updates are delayed over a panel of steps: ``tau`` and ``w`` of each
step are kept as columns of two tall arrays ``U`` and ``W``, the two rows
that a step reads are brought up to date from them, and a pivot swap swaps
their rows too.  At the end of the panel the trailing block receives
``U W^T - W U^T`` from one matrix product.  The panel width follows from the
matrix size: one step (each update applied at once) below dimension
``_BLOCK_MIN_DIM``, where the extra products cost more than they save, and
``_BLOCK_STEPS`` steps from there on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SkewMatrix", "pfaffian", "PfaffianDimensionError", "SkewSymmetryError"]

#: relative tolerance for the antisymmetry check at construction
ASYMMETRY_RTOL = 1e-12
#: pivots below this fraction of the largest initial entry short-circuit to 0
PIVOT_RTOL = 1e-13
#: matrices of at least this dimension delay their updates over panels ...
_BLOCK_MIN_DIM = 48
#: ... of this many elimination steps (2 rows and columns each)
_BLOCK_STEPS = 32


class PfaffianDimensionError(ValueError):
    """Matrix is not square with even dimension >= 2."""


class SkewSymmetryError(ValueError):
    """Matrix violates antisymmetry beyond tolerance."""


class SkewMatrix:
    """Even-dimensional complex antisymmetric matrix.

    Construction symmetrizes the input, i.e. stores ``(M - M.T) / 2`` (which
    zeroes the diagonal exactly), and records the largest asymmetry found.
    Asymmetry beyond ``ASYMMETRY_RTOL`` relative to the largest entry
    magnitude raises :class:`SkewSymmetryError`; a NaN or infinite entry
    raises ``ValueError``.
    """

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PfaffianDimensionError(f"expected a square matrix, got shape {m.shape}")
        n = m.shape[0]
        if n < 2 or n % 2 != 0:
            raise PfaffianDimensionError(f"dimension must be even and >= 2, got {n}")
        scale = float(np.abs(m).max())
        if not np.isfinite(scale):
            raise ValueError("matrix entries must be finite")
        asymmetry = float(np.abs(m + m.T).max())
        if scale > 0.0 and asymmetry > ASYMMETRY_RTOL * scale:
            raise SkewSymmetryError(
                f"antisymmetry violated: max |M + M.T| = {asymmetry:.3e} "
                f"(largest entry {scale:.3e})"
            )
        self.entries = 0.5 * (m - m.T)
        self.dim = n
        self.max_asymmetry = asymmetry

    def __repr__(self):
        return f"SkewMatrix(dim={self.dim}, max_asymmetry={self.max_asymmetry:.3e})"


def pfaffian(a) -> complex:
    """Pfaffian of a complex skew-symmetric matrix.

    Parameters
    ----------
    a : SkewMatrix or array_like
        Even-dimensional antisymmetric matrix.  Arrays are validated through
        :class:`SkewMatrix` first.

    Returns
    -------
    complex
        Pf(a), with the convention Pf([[0, x], [-x, 0]]) = x.

    Notes
    -----
    O(n^3), with the trailing-block updates delayed over panels (see the
    module docstring).  If at any elimination step the largest available
    pivot falls below ``PIVOT_RTOL`` times the largest initial entry
    magnitude, the matrix is treated as structurally singular and exactly 0
    is returned.
    """
    if not isinstance(a, SkewMatrix):
        a = SkewMatrix(a)
    m = a.entries.copy()
    n = a.dim
    scale = float(np.abs(m).max())
    if scale == 0.0:
        return 0.0 + 0.0j
    threshold = PIVOT_RTOL * scale

    nb = _BLOCK_STEPS if n >= _BLOCK_MIN_DIM else 1
    # the panel's pending updates: step j's tau in u[:, j], its w in w[:, j]
    uw = np.empty((n, 2 * nb), dtype=complex)
    u, w = uw[:, :nb], uw[:, nb:]
    pf = 1.0 + 0.0j
    for k0 in range(0, n - 2, 2 * nb):
        steps = min(nb, (n - 2 - k0) // 2)
        for j in range(steps):
            k = k0 + 2 * j
            # row k brought up to date is minus column k: the matrix stays antisymmetric
            if j:
                m[k, k + 1:] += w[k + 1:, :j] @ u[k, :j] - u[k + 1:, :j] @ w[k, :j]
            mag = np.abs(m[k, k + 1:])
            rel = int(np.argmax(mag))
            if mag[rel] < threshold:
                return 0.0 + 0.0j
            if rel:
                # swap rows and columns k + 1 and k + 1 + rel as strided slice pairs
                pair, flip = slice(k + 1, k + 2 + rel, rel), slice(k + 1 + rel, k, -rel)
                m[pair, k:] = m[flip, k:]
                m[k:, pair] = m[k:, flip]
                uw[pair] = uw[flip]
                pf = -pf
            # row k + 1 brought up to date is minus w
            if j:
                m[k + 1, k + 2:] += w[k + 2:, :j] @ u[k + 1, :j] - u[k + 2:, :j] @ w[k + 1, :j]
            pf *= m[k, k + 1]
            u[k + 2:, j] = m[k, k + 2:] / m[k, k + 1]
            w[k + 2:, j] = -m[k + 1, k + 2:]
        # the panel's delayed rank-2 updates, tau w^T - w tau^T summed over its steps
        ke = k0 + 2 * steps
        x = u[ke:, :steps] @ w[ke:, :steps].T
        m[ke:, ke:] += x - x.T
    pf *= m[n - 2, n - 1]
    return complex(pf)
