"""Magnetizations of the evolving two-sector BCS state.

The longitudinal components require the cross-parity matrix element
``<psi(t)| c_1 |psi(t)>``, the sum of ``<psi_e| c_1 |psi_o>`` and
``<psi_o| c_1 |psi_e>``.  Each is a single fermion word of length 2N,
filled straight from the ``u, v`` arrays: the bra (the adjoint of the
other sector's ket), the Fourier sum ``sum_k e^{ik} c_k`` of ``c_1`` on the
ket's grid as one factor, and the ket.  Wick's theorem is linear in each
factor, so each word equals the sum over Fourier components: the k = 0
component annihilates the odd ket's ``c^dag_0``, and the +-k components
break the BCS pair k into ``v_k (e^{ik} c^dag_{-k} - e^{-ik} c^dag_k)``.

The second word is the complex conjugate of its adjoint
``<psi_e| c_1^dag |psi_o>``, which is the first word with its one ``c_1``
factor, on the odd grid, replaced by ``c_1^dag`` on the even grid.  So
the two words share 2N - 1 factors, ``<psi_e|``, ``|psi_o>`` and
``c^dag_0``.  With the differing factor moved to the end (past N - 1
factors, a sign of -1) they are one bordered word: the shared factors'
contraction matrix M and two passive border columns, the contractions of
``c_1`` and of ``c_1^dag`` with those factors.

Every shared factor is a one-mode factor, one annihilated and one created
mode.  Within a sector kappa is a Kronecker delta, so there only the two
factors of each BCS pair contract; across sectors the contractions are
the gather of :func:`isingring.wick.contractions`, kappa(m - m') over grid
indices.  ``c_1`` annihilates, so it meets only the later factors of its
own sector; ``c_1^dag`` creates, so it meets only the bra.  Each border
column is therefore ``c_1``'s own coefficients at those factors' indices.
So the operand is built straight from the amplitudes, out of the parts
that meet across sectors: the bra pairs' annihilated parts ``c_{-k}`` and
``conj(v_k) c_k``, the ket's created parts ``v_q c^dag_q`` and
``c^dag_{-q}``, and ``c^dag_0``.  The in-sector pair entries are
``conj(u_k)`` in the bra and ``u_q`` in the ket.  The adjoint lists the
bra's pairs in descending k; they are laid out in ascending k, which
moves whole pairs, with sign +1.

The bra is eliminated first, in its Thouless form.  Write M as
``[[A, C], [-C^T, D]]`` with A the N bra rows.  A bra row meets only its
own BCS partner, the ket, ``c^dag_0`` and the ``c_1^dag`` border, so A is
block diagonal, with one 2 x 2 block ``[[0, alpha_k], [-alpha_k, 0]]``,
``alpha_k = conj(u_k)``, per pair.  Moving the accepted pairs (below) to
the front moves whole pairs, with sign +1, and their Schur complement
gives, for either border column,

    Pf(M) = prod_k alpha_k  Pf(S),   S = D + C^T A^{-1} C = D + X - X^T,
    X = C2^T diag(1 / alpha) C1,

with C1 and C2 the first and second rows of the accepted pairs over the
ket, ``c^dag_0`` and border columns: S is the bordered matrix of the ket
word in the bra's Thouless vacuum (the Pfaffian overlap formula of
Bertsch and Robledo, PRL 108, 042505 (2012)).  The pairs do not couple
to each other, so this is one update, one matrix product, whose order
does not matter, and ``X - X^T`` keeps S exactly antisymmetric.  A
rejected pair stays in S as its two rows, in ascending k, so S
has dimension N + 1 + 2f for f rejected pairs, and the Pfaffian kernel
eliminates a leading block of N - 1 + 2f rows instead of 2N - 1.

Pivot rule, and the audit of every division.  The engine divides only by
accepted pair entries.  Pair k is accepted only if ``|alpha_k|`` exceeds
``PAIR_RTOL`` times the largest entry of its two rows, ``alpha_k``
included: threshold pivoting, a pivot chosen by magnitude.  Each of the
pair's two rank-one terms then changes an entry by less than that
largest entry over ``PAIR_RTOL``, so one pair grows the matrix by at most
a factor 1 + 2 / ``PAIR_RTOL``, and the pairs' bounds add rather than
compound.  A pair with u = 0, or with a NaN or infinite entry, fails the
test, so it is never divided by and a non-finite entry stays in S; at
v = 0 its second row holds only ``alpha_k``, and it adds nothing.  The
kernel's ``PIVOT_RTOL`` test compares against the entries of S, and
Pf(M) = 0 exactly when Pf(S) = 0.

The exponent fold.  ``prod_k alpha_k`` leaves the double range at large
N (about 1e-680 for 400 pairs with |u| = 0.02), so it is never formed as
one double: :func:`_pair_product` keeps it as ``z 2^e``, a mantissa
``1/2 <= |z| < 1`` and an exact integer e, renormalizing with ``frexp``
and ``ldexp``.  z multiplies both border columns.  2^e is spread over S as
an exact power-of-two scaling: with L leading rows and
``e = q (L + 1) + r``, ``0 <= r <= L``, entry (i, j) is multiplied by
``2^(t_i + t_j)``, where t is q + 1 on the first r rows and q on the rest
and on the borders.  Each even matrix of the leading block and one
border column then gains exactly ``z 2^e``, so the returned operand's
bordered Pfaffians are those of the full matrix.  A scaling by 2^0 is
skipped.

The per-sample cost.  Everything that depends on N alone, the grid
indices of the operand's parts, their border phases and the kappa table
of the cross block, is a table of the state's
:class:`isingring.model.MomentumGrid`, built with the grid; a sample
forms only what depends on its amplitudes.  When every bra pair passes
the pivot test, as it does for most states, S is assembled without the
gathers of the rejected pairs.

S reaches the Pfaffian as
:meth:`isingring.pfaffian.SkewMatrix.antisymmetric`, which takes its
largest entry magnitude as the ``PIVOT_RTOL`` scale and skips the
antisymmetry scan that an arbitrary matrix needs; a NaN or infinite entry
makes that scale NaN or infinite, which raises ``ValueError``.

Each BCS mode factor enters division-free through the identity
``eta^dag_k c^dag_{-k} |vac> = (u + v c^dag_k c^dag_{-k}) |vac>``, which
stays regular when a mode passes through v = 0 (as happens under kicks).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DriverSpec, SystemState, evolve_kick_step, evolve_quench, init_ferro
from .model import MomentumGrid
from .pfaffian import SkewMatrix
from .wick import contractions, vacuum_expectation

__all__ = ["MagnetizationSample", "expectation_c1", "magnetization", "run_series"]

# Signs scaling, in order: the k = 0 coefficient of c_1 on the odd grid, its
# other odd-grid coefficients, and the whole of c_1 on the even grid.
# Frozen by requiring expectation_c1(init_ferro) = +1/2 and
# regression-tested against exact diagonalization on both drivers.  Mutable
# only as a fault-injection hook for the validation suite's negative control.
_TERM_SIGNS = (1.0, 1.0, 1.0)

#: a bra pair is eliminated in the Schur complement only if its entry exceeds this
#: fraction of the largest entry of its two rows (threshold pivoting; see the module docstring)
PAIR_RTOL = 0.01


@dataclass(frozen=True)
class MagnetizationSample:
    """Site-summed magnetizations at one instant (or kick count)."""

    time: float
    mx: float
    my: float
    mz: float


def _pair_product(alpha):
    """``prod(alpha)`` as ``(z, e)``, ``prod(alpha) = z 2^e`` with ``1/2 <= |z| < 1``.

    After each factor the running product is divided by its own power of
    two (``frexp``, then an exact ``ldexp``) and the power is added to the
    integer ``e``, so no partial product leaves the double range.
    """
    z, e = 1.0 + 0.0j, 0
    for x in alpha.tolist():
        z *= x
        shift = math.frexp(abs(z))[1]
        z, e = complex(math.ldexp(z.real, -shift), math.ldexp(z.imag, -shift)), e + shift
    return z, e


def _c1_bordered(state: SystemState) -> SkewMatrix:
    """Both ``<c_1>`` words as one bordered Pfaffian operand, reduced by the accepted bra pairs.

    The full bordered matrix has the 2N - 1 shared factors

        <psi_e| (N factors), |psi_o> (N - 2 factors), c^dag_0

    as its leading block and, as border columns, their contractions with
    ``c_1`` on the odd grid (word 1, ``<psi_e| c_1 |psi_o>``) and with
    ``c_1^dag`` on the even grid (the adjoint of word 2,
    ``<psi_o| c_1 |psi_e>``); ``c_1`` enters without its ``N^{-1/2}``, which
    sits in the coefficients.  The returned operand is its Schur complement
    on the bra pairs that pass the pivot test: the rejected bra pairs, the
    ket, ``c^dag_0`` and the two border columns, dimension N + 1 + 2f for f
    rejected pairs, scaled so that its two bordered Pfaffians are those of
    the full matrix (see the module docstring).  The grid indices and the
    border phases are the grid's tables; only the amplitudes are per state.
    """
    grid = state.grid
    n = grid.n_sites
    s1, s2, s3 = _TERM_SIGNS
    # the parts that meet across sectors, at the grid's interleaved indices ann and cre: the
    # bra pairs' annihilated parts c_{-k} and conj(v) c_k, ascending in k, and the ket's
    # created parts v c^dag_k and c^dag_{-k}, then c^dag_0
    a = np.ones(n, dtype=complex)
    np.conjugate(state.v_plus, out=a[1::2])
    b = np.ones(n - 1, dtype=complex)
    b[0:-1:2] = state.v_minus

    # within a sector only the two factors of a BCS pair contract, with kappa = 1
    alpha = np.conj(state.u_plus)
    # the bra rows over the later columns: the ket and c^dag_0, word 1's border (which
    # meets only the ket and c^dag_0), word 2's border
    rows = np.zeros((n, n + 1), dtype=complex)
    rows[:, :n - 1] = contractions((grid.ann, grid.cre), (a, b), grid)
    np.multiply(grid.ann_phase, a, out=rows[:, n])
    first = grid.cre_phase * b

    # the pivot test; a NaN or infinite entry fails it and stays in the operand
    pair_rows = rows.reshape(n // 2, 2, n + 1)
    size = np.abs(alpha)
    accepted = size > PAIR_RTOL * np.maximum(np.abs(pair_rows).max(axis=(1, 2)), size)
    every = np.count_nonzero(accepted) == n // 2
    z, e = _pair_product(alpha if every else alpha[accepted])
    # the term signs and z enter the border columns together; word 1's c_1 stands before the
    # later factors, so its column holds minus its contractions, and its last entry, at
    # c^dag_0 (phase and coefficient 1), takes the k = 0 sign
    rows[:, n] *= s3 * z
    first *= -s2 * z
    first[-1] = -s1 * z

    # S = U - U^T: U holds X = C2^T diag(1 / alpha) C1 over the accepted pairs' rows C1 and C2
    # and, above the diagonal, the rejected pairs' rows in their order, word 1's border and
    # the remaining pair entries
    if every:
        pivots, k, pair_alpha = pair_rows, 0, state.u_minus
    else:
        pivots, kept = pair_rows[accepted], ~accepted
        rejected = pair_rows[kept].reshape(-1, n + 1)
        k, pair_alpha = len(rejected), np.concatenate((alpha[kept], state.u_minus))
        alpha = alpha[accepted]
    dim = k + n + 1
    upper = np.zeros((dim, dim), dtype=complex)
    np.matmul((pivots[:, 1] / alpha[:, None]).T, pivots[:, 0], out=upper[k:, k:])
    if k:
        upper[:k, k:] = rejected
    upper[k:-2, -2] = first
    # the pair entries (i, i + 1), even i < dim - 3, a strided view of the flat matrix
    upper.reshape(-1)[1:(dim - 3) * (dim + 1) + 1:2 * (dim + 1)] += pair_alpha
    skew = upper - upper.T

    # 2^e spread over the leading rows and either border: each even Pfaffian gains it exactly
    q, r = divmod(e, dim - 1)
    if q:
        skew *= math.ldexp(1.0, 2 * q)
    if r:
        skew[:r] *= 2.0
        skew[:, :r] *= 2.0
    return SkewMatrix.antisymmetric(skew, border=2)


def expectation_c1(state: SystemState) -> complex:
    """Cross-parity matrix element ``<psi(t)| c_1 |psi(t)>``."""
    first, second_adjoint = vacuum_expectation(_c1_bordered(state), border=2)
    phase = cmath.exp(-1j * state.gamma)
    # the minus sign undoes moving c_1 (c_1^dag) past the N - 1 factors after it
    return -(phase * first + 1j * (phase * second_adjoint).conjugate()) / (2.0 * math.sqrt(state.grid.n_sites))


def magnetization(state: SystemState) -> MagnetizationSample:
    """Site-summed (mx, my, mz) of the current state.

    mx and my come from the cross-parity ``<c_1>`` (with
    ``<c_1^dag> = conj <c_1>``); mz is diagonal in the BCS amplitudes.
    """
    c1 = expectation_c1(state)
    n = state.grid.n_sites
    mz = (np.vdot(state.v_plus, state.v_plus) - np.vdot(state.u_plus, state.u_plus)
          + np.vdot(state.v_minus, state.v_minus) - np.vdot(state.u_minus, state.u_minus)).real
    return MagnetizationSample(time=state.time, mx=2.0 * n * c1.real, my=-2.0 * n * c1.imag, mz=float(mz))


def run_series(driver: DriverSpec, grid: MomentumGrid, schedule, threads: int = 1):
    """Magnetization samples along a driver schedule, in schedule order.

    For a quench the schedule lists sample times, for kicks it lists kick
    counts, and kick samples are stroboscopic, taken just after the n-th
    kick.  Every sample is one closed-form propagation from the initial
    state (a Floquet power for kicks), so its value does not depend on the
    other schedule entries, and it is labelled by its own entry.
    ``threads`` > 1 evaluates the samples in that many worker threads.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    schedule = list(schedule)
    if not np.all(np.isfinite(schedule)):
        raise ValueError("schedule entries must be finite")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    base = init_ferro(grid)
    if driver.kind == "quench":
        if any(t < 0 for t in schedule):
            raise ValueError("quench sample times must be nonnegative")
        states = [evolve_quench(base, driver.g_f, t) for t in schedule]
    else:
        if any(int(s) != s or s < 0 for s in schedule):
            raise ValueError("kick schedule entries must be nonnegative integers")
        states = [evolve_kick_step(base, driver.g, driver.tau, driver.epsilon, int(n)) for n in schedule]

    if threads > 1:
        # imported here: a serial series should not pay for the module
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            samples = list(pool.map(magnetization, states))
    else:
        samples = [magnetization(s) for s in states]
    return [MagnetizationSample(float(x), s.mx, s.my, s.mz) for x, s in zip(schedule, samples)]
