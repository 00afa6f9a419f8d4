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
two columns of f.  f lives in the rows below m in one working array, so
that one slice assignment swaps both.  At the end of the panel the
trailing block receives ``f^T m[k0:ke]`` (ke the first row after the
panel) from one matrix product.
Every panel spans ``_BLOCK_STEPS`` steps, at every matrix size; the last
one spans the steps that are left.

Stacks.  ``pfaffian`` also takes a (B, n, n) stack of operands of one
dimension and border, and returns the list of the B results.  There is
one kernel: every vector operation of a step indexes the last two axes,
so on a stack it runs once for all members (the row updates, the pivot
search, the f rows and the panel product, as batched matrix products),
and on one matrix it runs as on the stack of one without the leading
axis.  The rest is each member's own, in Python scalars: its pivot and
its ``PIVOT_RTOL`` threshold, its swaps, as slices of its own matrix, its
sign and its pivot product.  Batched products make the same BLAS call per
member as one matrix does, so a member's result is bit for bit the one it
has alone.  At small n the cost of a step is that of its few dozen numpy
calls, not their arithmetic, so a stack of B members costs far less than
B matrices one after the other.  In place updates go through named views
(``row += x``): ``m[k, k + 1:] += x`` would also assign the view back.

The operand is a :class:`SkewMatrix`, which validates it.  :func:`pfaffian`
copies it into its working array w and eliminates there, so the operand
stays as it was and can be read again.  w and the panel product
``f^T m[k0:ke]`` are taken in the operand's :class:`Workspace` and freed
there at the end (:func:`working_entries` counts them); an operand
without one gets a new workspace per call.

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
In a stack each member is tested against its own threshold and its own
rows.  A member whose row is spent gets what it gets alone, exact zeros or
its words' own Pfaffians, and stays in the stack: its working rows and
coefficients are set to zero, so every later update of it adds exact
zeros, and the others go on unchanged.  A range error in a stack names
the member, in its message and as the error's ``member`` attribute.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .model import _integer

__all__ = ["SkewMatrix", "Workspace", "pfaffian", "working_entries", "PfaffianDimensionError", "SkewSymmetryError"]

#: relative tolerance for the antisymmetry check at construction
ASYMMETRY_RTOL = 1e-12
#: a pivot at most this fraction of its row's largest initial entry marks a spent row
PIVOT_RTOL = 1e-13
#: the updates are delayed over panels of this many elimination steps (2 rows and columns each)
_BLOCK_STEPS = 32
#: the smallest normal double: a smaller pivot product has lost digits
_TINY = sys.float_info.min


class Workspace:
    """One flat complex buffer from which an evaluation carves its working arrays.

    :meth:`take` returns a C-contiguous array of any shape and dtype over
    the entries above ``top`` and raises ``top`` past them; setting ``top``
    back to an earlier value frees everything taken since.  The buffer is
    one allocation, made by :meth:`reserve`.  A buffer that is too small is
    made again, at least twice as large, so that a run of larger requests
    costs one more allocation, not one each; an array taken before keeps
    the buffer it lives in, and offsets stay the same in the new one.  A
    workspace belongs to one thread at a time.
    """

    def __init__(self):
        self.buffer, self.top = np.empty(0, dtype=complex), 0

    def reserve(self, entries: int):
        """Make room for ``entries`` complex entries above ``top``: exactly, in a workspace without a buffer."""
        if self.top + entries > self.buffer.size:
            self.buffer = np.empty(max(self.top + entries, 2 * self.buffer.size), dtype=complex)

    def take(self, shape, dtype=complex) -> np.ndarray:
        """An uninitialized array of ``shape`` and ``dtype`` over the entries above ``top``."""
        try:
            array = np.ndarray(shape, dtype, self.buffer, 16 * self.top)
        except TypeError:
            # numpy's "buffer is too small"
            self.reserve(-(-math.prod(shape) * np.dtype(dtype).itemsize // 16))
            array = np.ndarray(shape, dtype, self.buffer, 16 * self.top)
        self.top += -(-array.nbytes // 16)
        return array


def _working_shapes(shape, border: int):
    """The shapes of the kernel's working array w and of its panel product, for an operand of ``shape``."""
    n = shape[-1]
    d = n - border
    # a panel's rows of f: 2 per step, over the rows eliminated from the leading block
    panel = 2 * min(_BLOCK_STEPS, (d - 2 + d % 2) // 2)
    lead = tuple(shape[:-2])
    # each panel's product f^T m goes to the leading rows and columns of the first, the largest
    return lead + (n + panel, n), lead + (n - panel, n - panel)


def working_entries(shape, border: int = 0) -> int:
    """The workspace entries that :func:`pfaffian` takes for an operand of ``shape`` and ``border``.

    It takes them above the workspace's ``top`` and frees them before it
    returns.  :meth:`SkewMatrix.antisymmetric` takes fewer, the operand's
    magnitudes, and frees them before.
    """
    return sum(map(math.prod, _working_shapes(shape, border)))


class PfaffianDimensionError(ValueError):
    """Matrix is not square with even dimension >= 2."""


class SkewSymmetryError(ValueError):
    """Matrix violates antisymmetry beyond tolerance."""


def _in_member(m: np.ndarray, i: int) -> str:
    """The words that name member i of a stack in an error message; nothing for one matrix."""
    return f" in stack member {i}" if m.ndim == 3 else ""


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

    A (B, n, n) array is a stack of B such matrices: ``dim`` and ``border``
    are each member's, ``scale`` is the array of the members' largest entry
    magnitudes, each checked against its own member, and an error names
    the member that raised it.
    """

    def __init__(self, entries, border: int = 0):
        m = self._wrap(entries, border)
        transpose = np.swapaxes(m, -1, -2)
        asymmetry = np.abs(m + transpose).max(axis=(-2, -1)).reshape(-1)
        scale = np.reshape(self.scale, -1)
        for i in np.flatnonzero(asymmetry > ASYMMETRY_RTOL * scale)[:1].tolist():
            raise SkewSymmetryError(
                f"antisymmetry violated: max |M + M.T| = {asymmetry[i]:.3e} "
                f"(largest entry {scale[i]:.3e})" + _in_member(m, i)
            )
        self.entries = 0.5 * (m - transpose)
        self.max_asymmetry = float(asymmetry.max(initial=0.0))

    @classmethod
    def antisymmetric(cls, entries, border: int = 0, workspace: Workspace | None = None) -> "SkewMatrix":
        """Wrap a matrix that is antisymmetric by construction, as it is.

        The caller guarantees ``entries == -entries.T`` exactly.  The
        entries are taken as complex, which copies only real or integer
        input, and are not scanned for antisymmetry.  The shape and border
        are checked, and the largest entry magnitude becomes ``scale``; a
        NaN or infinite entry makes it NaN or infinite, which raises
        ``ValueError``.  A ``workspace`` travels with the operand:
        :func:`pfaffian` carves its working arrays from it, and the
        magnitudes behind ``scale`` are taken in it too.
        """
        self = cls.__new__(cls)
        self._wrap(entries, border, workspace)
        return self

    def _wrap(self, entries, border: int, workspace: Workspace | None = None) -> np.ndarray:
        """Take the entries as complex, check shape, border and finiteness, and record them."""
        border, m = _integer(border, "border"), np.asarray(entries, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
            raise PfaffianDimensionError(f"expected a square matrix or a stack of them, got shape {m.shape}")
        n = m.shape[-1]
        paired = n - border + (border > 0)
        if border < 0 or paired < 2 or paired % 2 != 0:
            raise PfaffianDimensionError(
                f"dimension must be even and >= 2, got {n}" if border == 0 else
                f"dimension {n} leaves no leading block of odd dimension before {border} border columns"
            )
        if workspace is None:
            magnitudes = np.abs(m)
        else:
            mark = workspace.top
            magnitudes = np.abs(m, out=workspace.take(m.shape, float))
            workspace.top = mark
        if m.ndim == 2:
            scale = float(magnitudes.max())
            finite = math.isfinite(scale)
        else:
            scale = magnitudes.max(axis=(-2, -1), initial=0.0)
            finite = np.isfinite(scale).all()
        if not finite:
            raise ValueError("matrix entries must be finite" + _in_member(m, np.argmin(np.isfinite(scale))))
        self.entries, self.dim, self.border, self.scale, self.max_asymmetry = m, n, border, scale, 0.0
        self.workspace = workspace
        return m

    def __len__(self):
        return self.dim

    def __repr__(self):
        return f"SkewMatrix(dim={self.dim}, border={self.border}, max_asymmetry={self.max_asymmetry:.3e})"


def _representable(z: complex) -> bool:
    """Finite, and not below the smallest normal double, where digits are lost."""
    return cmath.isfinite(z) and max(abs(z.real), abs(z.imag)) >= _TINY


def _member_error(error: FloatingPointError, member: int) -> FloatingPointError:
    """``error`` naming the stack member it came from, also as its ``member`` attribute."""
    named = FloatingPointError(f"stack member {member}: {error}")
    named.member = member
    return named


def _small_pivot(operand, border, m, f, k0, k, offsets, magnitude, sizes):
    """The result of an operand whose pivot at step k is below its tolerance, or None.

    ``m`` and ``f`` are the operand's working matrix, with this step's swap
    done, and its rows of the panel's coefficients; ``offsets`` are its
    pivot offsets up to this step.  None means the row is not spent: the
    pivot is a true one, unless it is subnormal, which raises.  ``sizes``
    is the cache of ``PIVOT_RTOL`` times the largest initial entry of each
    leading row, formed on first use.
    """
    d = len(operand) - border
    if sizes is None:
        sizes = np.abs(operand[:d, :d]).max(axis=1) * PIVOT_RTOL
    # the operand row now in each row of m
    perm = list(range(d))
    for i, r in enumerate(offsets, 1):
        perm[2 * i - 1], perm[2 * i - 1 + r] = perm[2 * i - 1 + r], perm[2 * i - 1]
    if magnitude > sizes[perm[k]]:
        if magnitude < _TINY:
            raise FloatingPointError(f"pivots below the smallest normal double ({magnitude:.3e})")
        return None, sizes
    if not border:
        return 0.0 + 0.0j, sizes
    # the rest of the leading block, brought up to date with the panel's pending updates
    rest = slice(k + 1, d)
    block = m[rest, rest] + f[:k - k0, rest].T @ m[k0:k, rest]
    if (np.abs(block).max(axis=1) > sizes[perm[k + 1:]]).any():
        # the spent row is the block's null direction, met only by the border columns
        words = (np.r_[:d, c] for c in range(d, len(operand)))
        return tuple(pfaffian(operand[np.ix_(w, w)]) for w in words), sizes
    return (0.0 + 0.0j,) * border, sizes


def pfaffian(a, border: int = 0):
    """Pfaffian of a complex skew-symmetric matrix, or of several bordered ones; or of a stack of either.

    Parameters
    ----------
    a : SkewMatrix or array_like
        Antisymmetric matrix, or a (B, n, n) stack of B of them.  Arrays
        are validated through :class:`SkewMatrix` first; a ``SkewMatrix``
        must carry the same ``border``.
    border : int
        Number of trailing border columns.  With 0 the result is Pf(a).
        With b > 0 it is a tuple of b Pfaffians, the i-th of the even matrix
        that the leading block (dimension n - b, odd) forms with border
        column i.

    Returns
    -------
    complex or tuple of complex, or a list of them
        Pf(a), with the convention Pf([[0, x], [-x, 0]]) = x.  A stack
        gives the list of its members' results, each what the member gives
        alone, bit for bit.

    Raises
    ------
    FloatingPointError
        If a pivot, the product of the pivots, or a result whose last
        factor is nonzero, is not finite or falls below the smallest normal
        double, except a pivot that spends its row (at most ``PIVOT_RTOL``
        times the row's largest initial entry).  For a stack the message
        names the member, which is also the error's ``member`` attribute.

    Notes
    -----
    O(n^3) per member, with the trailing-block updates delayed over panels
    and the pivots searched inside the leading block only.  A pivot at
    most ``PIVOT_RTOL`` times the largest initial entry of its row leaves
    exact zeros or, in a bordered matrix whose leading block is not spent,
    the results' own plain Pfaffians; a larger pivot below the smallest
    normal double raises ``FloatingPointError`` (see the module docstring).
    """
    border = _integer(border, "border")
    if not isinstance(a, SkewMatrix):
        a = SkewMatrix(a, border)
    elif a.border != border:
        raise PfaffianDimensionError(f"the SkewMatrix has {a.border} border columns, not {border}")
    # one kernel for a matrix and for a stack: every vector operation of a step indexes the
    # rows and columns of the last two axes, so on a stack it runs once over all members
    stacked = a.entries.ndim == 3
    operands = a.entries if stacked else a.entries[None]
    n = a.dim
    tols = [max(PIVOT_RTOL * s, _TINY) for s in (a.scale.tolist() if stacked else [a.scale])]

    # the leading block, in which the pivots are searched, and the rows eliminated
    # from it: all but its last row (all but the last two of an even block)
    d = n - border
    e = d - 2 + d % 2
    # each member's result once its row is spent; each step's pivot offsets, from which a
    # pivot below its tolerance replays the row permutation
    results, sizes = [None] * len(operands), [None] * len(operands)
    offsets = []
    # each member's working copy m of its operand in rows :n and below it f, the panel's pending
    # updates: step j's (s, -r) / pivot in rows n + 2j, n + 2j + 1 (r, s = m[k:k + 2]), so a pivot
    # swap of two columns of m's rows from k0 on is one slice assignment that swaps them in f too
    space = Workspace() if a.workspace is None else a.workspace
    mark = space.top
    w, products = map(space.take, _working_shapes(a.entries.shape, border))
    w[..., :n, :] = a.entries
    # each member's own (n + 2 steps) x n matrix, and f with an axis for the row it updates:
    # fv[..., :2j, x] holds the (1, 2j) coefficients of row x
    views, fv = list(w) if stacked else [w], w[..., None, n:, :]
    # the members' 1 / pivot and -1 / pivot, member i's at 2i and 2i + 1 of the flat view
    coefficients = np.empty(a.entries.shape[:-2] + (2, 1), dtype=complex)
    flat = coefficients.reshape(-1)
    pfs = [1.0 + 0.0j] * len(operands)
    for k0 in range(0, e, 2 * _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, (e - k0) // 2)
        for j in range(steps):
            k, fk = k0 + 2 * j, n + 2 * j
            # updates go through a named view: ``w[...] += x`` would also assign the view back
            if j:
                row = w[..., k:k + 1, k + 1:]
                row += fv[..., :2 * j, k] @ w[..., k0:k, k + 1:]
            rels = np.abs(w[..., k:k + 1, k + 1:d]).argmax(-1).ravel().tolist()
            offsets.append(rels)
            for i, rel in enumerate(rels):
                if results[i] is not None:
                    continue
                v = views[i]
                # Python complex arithmetic: an over- or underflow here raises no numpy warning
                pivot = v.item(k, k + 1 + rel)
                if rel:
                    # swap rows and columns k + 1 and k + 1 + rel, the columns also in the panel's rows and f
                    pair, flip = slice(k + 1, k + 2 + rel, rel), slice(k + 1 + rel, k, -rel)
                    v[pair, k:] = v[flip, k:]
                    v[k0:fk, pair] = v[k0:fk, flip]
                if abs(pivot) < tols[i]:
                    try:
                        result, sizes[i] = _small_pivot(
                            operands[i], border, v[:n], v[n:], k0, k, [o[i] for o in offsets],
                            abs(pivot), sizes[i])
                    except FloatingPointError as error:
                        raise _member_error(error, i) if stacked else error
                    if result is not None:
                        results[i] = result
                        if None not in results:
                            space.top = mark
                            return results if stacked else results[0]
                        # a spent member stays in the stack as zeros, so every later update adds zeros
                        v[...] = 0
                        flat[2 * i] = flat[2 * i + 1] = 0
                        continue
                pfs[i] *= -pivot if rel else pivot
                flat[2 * i] = inverse = 1.0 / pivot
                flat[2 * i + 1] = -inverse
            if j:
                row = w[..., k + 1:k + 2, k + 2:]
                row += fv[..., :2 * j, k + 1] @ w[..., k0:k, k + 2:]
            # rows k + 1 and k, in that order
            np.multiply(w[..., k + 1:k - 1 if k else None:-1, k + 2:], coefficients,
                        out=w[..., fk:fk + 2, k + 2:])
        # the panel's delayed rank-2 updates
        ke = k0 + 2 * steps
        product = np.matmul(np.swapaxes(w[..., n:n + 2 * steps, ke:], -1, -2), w[..., k0:ke, ke:],
                            out=products[..., :n - ke, :n - ke])
        trailing = w[..., ke:n, ke:]
        trailing += product
    # the last block row: its entry right of the block, or its border entries
    lasts = w[..., e, e + 1:].tolist()
    space.top = mark
    for i, (pf, last) in enumerate(zip(pfs, lasts if stacked else [lasts])):
        if results[i] is not None:
            continue
        values = [pf * x for x in last]
        if not _representable(pf) or any(x and not _representable(v) for x, v in zip(last, values)):
            error = FloatingPointError(
                f"the product of the pivots ({pf}) or a result ({values}) over- or underflows double precision"
            )
            raise _member_error(error, i) if stacked else error
        results[i] = tuple(values) if border else values[0]
    return results if stacked else results[0]
