"""Static structure of the periodic quantum Ising chain.

Momentum grids for the two fermion-parity sectors, the single-mode
dispersion and Bogoliubov angle, sub-ground-state energies and the parity
gap, the chord-length diagnostic behind the gap inequality, and the
frustration-free factorization formulas of the open XYZ chain, all in
double precision; the exponentially small gap comes from a positive series.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MomentumGrid",
    "dispersion",
    "bogoliubov_angle",
    "mode_coefficients",
    "sgs_energies",
    "gap_delta",
    "chord_excess",
    "delta_l",
    "cat_norm_identity",
    "xyz_factorization",
]


@dataclass(frozen=True)
class MomentumGrid:
    """Ring of ``n_sites`` spins, the grid indices of its positive modes, and its per-ring tables.

    The mode with integer grid index m has momentum ``k = pi m / N``.  The
    even sector uses the half-integer grid, odd m in (-N, N), symmetric
    under k -> -k.  The odd sector uses the integer grid, even m in [-N, N),
    which contains the two self-conjugate special modes k = -pi (m = -N) and
    k = 0.  Every other mode pairs with its negative, so a sector's state is
    labelled by its positive modes: ``plus`` holds the N/2 positive
    even-sector indices and ``minus`` the N/2 - 1 positive odd-sector normal
    modes, both ascending.

    Everything a magnetization sample needs that depends on N alone is
    tabulated once, here, so that a sample computes none of it again.
    The module that reads a table says what it holds:

    - ``momenta`` (k of ``plus``, then of ``minus``), ``cos_k`` and ``sin_k``:
      the modes of :mod:`isingring.dynamics`;
    - ``ann``, ``cre``, ``ann_phase`` and ``cre_phase``: the grid indices
      and border phases of the ``<c_1>`` operand of
      :mod:`isingring.observables`;
    - ``kappa``: kappa(d) of :mod:`isingring.wick`, 4N entries, so that
      ``kappa[d]`` under numpy's negative indexing is kappa(d) for every
      d = m - m' in (-2N, 2N).

    The tables are read-only arrays of O(N) entries and not dataclass
    fields, so grids of one size compare and hash equal.
    """

    n_sites: int

    def __post_init__(self):
        n = _ring_size(self.n_sites)
        plus, minus = np.arange(1, n, 2), np.arange(2, n, 2)
        momenta = np.pi * np.concatenate([plus, minus]) / n
        ann = np.empty(n, dtype=int)
        ann[0::2], ann[1::2] = -plus, plus
        cre = np.zeros(n - 1, dtype=int)
        cre[0:-1:2], cre[1::2] = minus, -minus
        d = np.arange(4 * n)
        d[2 * n:] -= 4 * n
        kappa = (d == 0).astype(complex)
        cross = d % 2 != 0
        kappa[cross] = (2.0 / n) / (np.exp(1j * np.pi * d[cross] / n) - 1.0)
        tables = {"plus": plus, "minus": minus, "momenta": momenta, "cos_k": np.cos(momenta),
                  "sin_k": np.sin(momenta), "ann": ann, "cre": cre, "kappa": kappa,
                  "ann_phase": np.exp(-1j * np.pi * ann / n), "cre_phase": np.exp(1j * np.pi * cre / n)}
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def __reduce__(self):
        # a copied or unpickled grid builds its own read-only tables
        return type(self), (self.n_sites,)


def _ring_size(n_sites) -> int:
    """``n_sites`` as an int, checked to be even and >= 4, as a ``MomentumGrid`` needs."""
    n = _integer(n_sites, "n_sites")
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n_sites must be even and >= 4, got {n}")
    return n


def _real(value, name: str, lower: float | None = None) -> float:
    """``value`` as a float; a bool, a non-number, a non-finite or one below ``lower`` raises ValueError naming ``name``."""
    # float is tested first, since the ABC check alone takes about 0.4 us for a float; a bool passes that check
    if (not isinstance(value, float) and (isinstance(value, bool) or not isinstance(value, numbers.Real))
            or not abs(value) <= sys.float_info.max or lower is not None and value < lower):
        kind = "real" if lower is None else "nonnegative" if lower == 0 else f"at least {lower}"
        raise ValueError(f"{name} must be finite and {kind}, got {value!r}")
    return float(value)


def _complex(value, name: str) -> complex:
    """``value`` as a complex; a bool, a non-number or a non-finite raises ValueError naming ``name``."""
    # complex is tested first, as float is in _real; abs() of a finite complex can overflow, so each part is compared
    if (not isinstance(value, complex) and (isinstance(value, bool) or not isinstance(value, numbers.Complex))
            or not (abs(value.real) <= sys.float_info.max and abs(value.imag) <= sys.float_info.max)):
        raise ValueError(f"{name} must be a finite complex number, got {value!r}")
    return complex(value)


def _sequence(values, name: str):
    """``values`` itself, a one-dimensional sequence; an array of another shape or a number raises ValueError naming ``name``."""
    if getattr(values, "ndim", 0 if isinstance(values, numbers.Number) else 1) != 1:
        got = f"an array of shape {values.shape}" if isinstance(values, np.ndarray) else repr(values)
        raise ValueError(f"{name} must be a one-dimensional sequence, got {got}")
    return values


def _reals(values, name: str) -> np.ndarray:
    """``values``, a one-dimensional sequence (:func:`_sequence`), as a float array.

    An entry that :func:`_real` rejects raises ``ValueError`` naming ``<name> entry``.
    """
    _sequence(values, name)
    # a finite float or integer array passes whole; numpy would cast a bool or a str in a sequence to its dtype
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf" and np.isfinite(values).all():
        return values.astype(float)
    return np.array([_real(x, f"{name} entry") for x in values], dtype=float)


#: the largest magnitude a mode coefficient, an energy or a phase of a drive may reach: half the largest
#: double, so that a bound on it computed with a few roundings cannot pass a value that overflows
_PHASE_MAX = 2.0**1023


def _field(g, name: str) -> float:
    """``g`` as a float field with ``4 (|g| + 1) <= 2^1023``; another raises ValueError naming ``name``.

    Every mode coefficient ``2 (cos k + g)`` and mode energy is at most
    ``2 (|g| + 1)``, so they and their sums and differences, such as
    ``bogoliubov_angle``'s ``lam + a``, stay within 2^1023.
    """
    g = _real(g, name)
    if not 4.0 * (abs(g) + 1.0) <= _PHASE_MAX:
        raise ValueError(f"{name} must satisfy 4 (|{name}| + 1) <= 2^1023, got {g!r}")
    return g


def _integer(value, name: str, lower: int | None = None) -> int:
    """``value`` as an int; a bool, a non-integer (8.0 too) or one below ``lower`` raises ValueError naming ``name``."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or lower is not None and n < lower:
        need = "a nonnegative integer" if lower == 0 else "an integer" if n is None else f"at least {lower}"
        raise ValueError(f"{name} must be {need}, got {value!r}")
    return n


def dispersion(k, g: float):
    """Single-mode energy ``2 sqrt(g^2 + 2 g cos k + 1)`` as the norm of ``mode_coefficients``."""
    return np.hypot(*mode_coefficients(k, g))


def bogoliubov_angle(k: float, g: float):
    """Half-angle pair ``(sin(theta_k/2), cos(theta_k/2))`` of a normal mode.

    Uses the closed form ``(-b, lam - a) / |(-b, lam - a)|`` from
    ``(a, b) = mode_coefficients(k, g)`` and ``lam = hypot(a, b)``, which
    fixes the sign/branch convention on which the cat-state identities
    rely.  Where a > 0, ``lam - a`` is taken as ``b^2 / (lam + a)``, which
    does not cancel at large fields.  The special modes k = 0 and k = -pi
    have diagonal two-level Hamiltonians and no angle; they raise
    ``ValueError``.
    """
    k = _real(k, "k")
    if abs(np.sin(k)) < 1e-12:
        raise ValueError(f"no Bogoliubov angle for special mode k={k}")
    a, b = mode_coefficients(k, g)
    lam = np.hypot(a, b)
    num_c = b * b / (lam + a) if a > 0 else lam - a
    norm = np.hypot(b, num_c)
    return -b / norm, num_c / norm


def mode_coefficients(k, g):
    """``(a, b) = (2 (cos k + g), -2 sin k)`` of ``H_k = [[a, b], [b, -a]]``.

    k is a finite real or a one-dimensional sequence of them; another
    raises ``ValueError`` naming k, as a field g that :func:`_field`
    rejects does naming g.
    """
    k = _real(k, "k") if np.ndim(k) == 0 else _reals(k, "k")
    return 2.0 * (np.cos(k) + _field(g, "g")), -2.0 * np.sin(k)


def sgs_energies(grid: MomentumGrid, g: float):
    """Energies of the even and odd sub-ground states ``(e_plus, e_minus)``.

    Each is a sum of at most N/2 mode energies of at most ``2 (|g| + 1)``,
    so ``N (|g| + 1)`` above 2^1023 raises ``ValueError`` naming g.
    """
    g, h = _field(g, "g"), grid.n_sites // 2
    if not grid.n_sites * (abs(g) + 1.0) <= _PHASE_MAX:
        raise ValueError(f"the sub-ground-state energies at g = {g!r} exceed 2^1023 for N = {grid.n_sites}")
    e_plus = -float(dispersion(grid.momenta[:h], g).sum())
    e_minus = -float(dispersion(grid.momenta[h:], g).sum()) - 2.0
    return e_plus, e_minus


def gap_delta(grid: MomentumGrid, g: float) -> float:
    """Half the energy splitting ``(e_minus - e_plus) / 2`` of the two parity sub-ground states.

    Even in g, and equal to the chord excess at x = |g|: the chord of index
    j is half the dispersion at grid index N - j, which has the parity of j,
    so the odd and even chords sum the even and odd sectors' positive modes.
    """
    return chord_excess(abs(_real(g, "g")), grid.n_sites)


#: half-width, in units of 1/N, of the window around x = 1 where the gap is the
#: chord sum; the Poisson series needs about 10 N terms per order outside it
_WINDOW = 3.0


def chord_excess(x: float, n_sites: int) -> float:
    """Chord-length difference minus one, ``delta_l(x) - 1``: the parity gap at field ``x``.

    Exposed separately because deep inside the unit circle the excess is
    exponentially small in N: adding it to 1 rounds away, while the excess
    itself stays strictly positive.  Below the smallest normal double
    (x > 0) it raises ``FloatingPointError``; at x = 0 it is exactly 0.
    One of three double-precision regimes, chosen from (x, N) alone: the
    positive Poisson series for x < 1 - 3/N, the chord sum for |1 - x| <= 3/N,
    and above it the reflection ``Delta(x) = x Delta(1/x) + x - 1``.
    """
    x, n = _real(x, "x", lower=0), _ring_size(n_sites)
    if abs(1.0 - x) <= _WINDOW / n:
        # chord j is sqrt((1 - x)^2 + 4 x sin^2(j h)), h = pi / 2N; chords 2i - 1 and 2i enter
        # as the difference of their squares over their sum, so no two large chords cancel
        h = np.pi / (2 * n)
        chords = np.sqrt((1.0 - x) ** 2 + 4.0 * x * np.sin(np.arange(1, n) * h) ** 2)
        i = np.arange(1, n // 2)
        pairs = -4.0 * x * np.sin((4 * i - 1) * h) * np.sin(h) / (chords[:-1:2] + chords[1::2])
        return math.fsum(np.append(pairs, [chords[-1], -1.0]))
    if x < 1.0:
        return _poisson_series(x, n) if x > 0.0 else 0.0
    try:  # |1 - x e^(i t)| = x |1 - e^(i t) / x|
        inner = x * _poisson_series(1.0 / x, n)
    except FloatingPointError:
        inner = 0.0
    return inner + (x - 1.0)


def _poisson_series(x: float, n: int) -> float:
    """Parity gap for 0 < x < 1 from its positive (Euler-transformed) Poisson series.

    ``2N sum_{m odd} |C(1/2, mN)| x^(mN) (1 - x^2)^2 F(3/2, mN + 3/2; mN + 1; x^2)``
    with F hypergeometric, summed in logarithms relative to the m = 1 term,
    which alone decides an underflow; ``log |C(1/2, n)|`` is ``log(1/2)`` plus
    the ``fsum`` of ``log(1 - 3/2k)``, k = 2 ... n.  The orders stop once
    x^((m - 1) N) < e^-40, and F's terms, which fall like x^2k, at e^-60.
    """
    log_x, z = math.log(x), x * x
    k = np.arange(int(30.0 / -log_x) + 20.0)
    orders = range(1, int(2.0 - 40.0 / (n * log_x)), 2)
    log_binom = np.log1p(-1.5 / np.arange(2.0, orders[-1] * n + 1))
    logs = []
    for mn in np.multiply(orders, n):
        f = 1.0 + np.cumprod((1.5 + k) * (mn + 1.5 + k) / ((mn + 1.0 + k) * (k + 1.0)) * z).sum()
        logs.append(math.fsum(log_binom[: mn - 1]) + mn * log_x + math.log(f))
    lead = logs[0] + math.log(n) + 2.0 * math.log1p(-z)
    if lead < math.log(np.finfo(float).tiny):
        raise FloatingPointError(f"parity gap at x = {x}, N = {n} is below the double range")
    return math.exp(lead) * math.fsum(np.exp(np.subtract(logs, logs[0])))


def delta_l(x: float, n_sites: int) -> float:
    """Chord-length difference on the upper unit semicircle.

    For a point P = (x, 0), x >= 0, with the semicircle cut into N equal
    sectors, returns the sum of the odd-index chords minus the even-index
    ones.  Satisfies ``delta_l(x) = gap_delta(x) + 1``, and is 1.0, correctly
    rounded, where the excess is below the double range.
    """
    try:
        return 1.0 + chord_excess(x, n_sites)
    except FloatingPointError:
        return 1.0


def cat_norm_identity(n_sites: int) -> float:
    """Product of ``sin(k/2)`` over positive even-sector momenta.

    Equals ``(1/sqrt(2))^(N-1)`` for every even N; this normalization fixes
    the phase relating the even cat state to the momentum-space sub-ground
    state of the classical ring.  Below the smallest normal double, from
    N = 2046 on, it raises ``FloatingPointError``.
    """
    grid = MomentumGrid(n_sites)
    # every factor is at most 1, so a normal product has only normal partial products
    value = float(np.prod(np.sin(grid.momenta[:grid.n_sites // 2] / 2.0)))
    if value < sys.float_info.min:
        raise FloatingPointError(f"the cat-state norm at N = {grid.n_sites} is below the double range")
    return value


def xyz_factorization(jx: float, jy: float, jz: float, n_sites: int):
    """Frustration-free point of the open XYZ chain.

    Returns ``(h_star, beta_star, overlap)``: the factorizing field, the
    product-state mixing amplitude, and the overlap of the two factorized
    ground states ``((1 - beta*) / (1 + beta*))^N``.
    Requires finite couplings ordered ``jx < jy <= 0 <= jz``, which make
    ``(jz - jx)(jz - jy)`` nonnegative, and a positive integer ``n_sites``.

    No intermediate leaves the double range where the result does not.
    h* = sqrt((jz - jx)(jz - jy)) is the product of sqrt(2) and the square
    roots of ``(jz - jx) / 2`` and ``jz - jy`` (since jx < jy, the second
    difference exceeds the double range only if h* does), and an h*
    beyond the double range raises ``ValueError``.  beta* is
    ``-(sqrt(d^2 + 4 h*^2) + 2 h*) / d`` with ``d = jx - jy < 0``, equal to
    ``-d / (sqrt(d^2 + 4 h*^2) - 2 h*)`` but free of its cancellation when
    |d| << h*: with ``r = h* / |d|`` it is ``s + 2 r``,
    ``s = hypot(1, 2 r)``, and a beta* beyond the double range raises
    ``ValueError``.  Likewise ``(beta* - 1) / (beta* + 1) = 2 r / (1 + s)``,
    free of the cancellation of beta* - 1 when r << 1.  An overlap below
    the smallest normal double raises ``FloatingPointError``, except the
    exact 0 at beta* = 1.
    """
    jx, jy, jz = (_real(j, name) for j, name in ((jx, "jx"), (jy, "jy"), (jz, "jz")))
    if not jx < jy <= 0.0 <= jz:
        raise ValueError(f"couplings must be finite with jx < jy <= 0 <= jz, got ({jx}, {jy}, {jz})")
    n_sites = _integer(n_sites, "n_sites", lower=1)
    h_star = math.sqrt(2.0) * math.sqrt(jz / 2.0 - jx / 2.0) * math.sqrt(jz - jy)
    ratio = h_star / (jy - jx)
    root = math.hypot(1.0, 2.0 * ratio)
    # an infinite h* makes beta* infinite too
    beta_star, q = root + 2.0 * ratio, 2.0 * ratio / (1.0 + root)
    if beta_star == math.inf:
        name = "the factorizing field" if h_star == math.inf else "beta*"
        raise ValueError(f"{name} of ({jx}, {jy}, {jz}) exceeds the double range")
    overlap = (-q) ** n_sites if q else 0.0
    if q and abs(overlap) < sys.float_info.min:
        raise FloatingPointError(f"the overlap of ({jx}, {jy}, {jz}) at N = {n_sites} is below the double range")
    return h_star, beta_star, overlap
