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
contraction matrix and two passive border columns, the contractions of
``c_1`` and of ``c_1^dag`` with those factors.  One sample therefore
costs one Pfaffian elimination of dimension 2N - 1.

Every shared factor is a one-mode factor, one annihilated and one created
mode.  Within a sector kappa is a Kronecker delta, so there only the two
factors of each BCS pair contract; across sectors the contractions are
the gather of :func:`isingring.wick.contractions`, kappa(m - m') over grid
indices.  ``c_1`` annihilates, so it meets only the later factors of its
own sector; ``c_1^dag`` creates, so it meets only the bra.  Each border
column is therefore ``c_1``'s own coefficients at those factors' indices.

The bordered matrix is written once.  Each block (the pair entries, the
cross block, the two border columns) goes into one (2N + 1)^2 buffer
together with its negated transpose, so the matrix is antisymmetric by
construction, and the largest magnitude in those blocks is its
``PIVOT_RTOL`` scale.  It reaches the Pfaffian as
:meth:`isingring.pfaffian.SkewMatrix.antisymmetric`, without the
antisymmetry scan that an arbitrary matrix needs; a NaN or infinite
entry makes that scale NaN or infinite, which raises ``ValueError``.

Each BCS mode factor enters division-free through the identity
``eta^dag_k c^dag_{-k} |vac> = (u + v c^dag_k c^dag_{-k}) |vac>``, which
stays regular when a mode passes through v = 0 (as happens under kicks).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class MagnetizationSample:
    """Site-summed magnetizations at one instant (or kick count)."""

    time: float
    mx: float
    my: float
    mz: float


def _fill_ket(index, coeff, modes, u, v):
    """Write ``|X>``, the factor pairs ``(eta^dag_k, c^dag_{-k})`` of the positive grid indices, into the rows.

    ``index`` and ``coeff`` are (2, 2 len(modes)) views of a word's
    (annihilated, created) parts; ``eta^dag_k`` is ``u c_{-k} + v c^dag_k``.
    """
    index[:, 0::2] = -modes, modes
    coeff[:, 0::2] = u, v
    index[1, 1::2] = -modes
    coeff[1, 1::2] = 1.0


def _fill_bra(index, coeff, modes, u, v):
    """Write ``<X|``, the adjoint of ``|X>``: rows reversed, coefficients conjugated, ann and cre swapped."""
    _fill_ket(index[::-1, ::-1], coeff[::-1, ::-1], modes, np.conj(u), np.conj(v))


def _c1_bordered(state: SystemState) -> SkewMatrix:
    """The (2N + 1) x (2N + 1) bordered contraction matrix of both ``<c_1>`` words, as a Pfaffian operand.

    The leading block holds the 2N - 1 shared factors

        <psi_e| (N factors), |psi_o> (N - 2 factors), c^dag_0

    and the two border columns hold their contractions with ``c_1`` on the
    odd grid (word 1, ``<psi_e| c_1 |psi_o>``) and with ``c_1^dag`` on the
    even grid (the adjoint of word 2, ``<psi_o| c_1 |psi_e>``).  ``c_1``
    enters without its ``N^{-1/2}``, which sits in the coefficients.  The
    operand is a :class:`SkewMatrix` with two border columns.
    """
    grid = state.grid
    n = grid.n_sites
    s1, s2, s3 = _TERM_SIGNS
    shared = 2 * n - 1
    # (annihilated, created) parts; index 0 with coefficient 0 is an absent part
    index = np.zeros((2, shared), dtype=int)
    coeff = np.zeros((2, shared), dtype=complex)
    _fill_bra(index[:, :n], coeff[:, :n], grid.plus, state.u_plus, state.v_plus)
    _fill_ket(index[:, n:-1], coeff[:, n:-1], grid.minus, state.u_minus, state.v_minus)
    coeff[1, -1] = 1.0
    (ann, cre), (a, b) = index, coeff

    # within a sector only the two factors of a BCS pair contract, with kappa = 1
    rows = np.arange(0, shared - 1, 2)
    pairs = a[rows] * b[rows + 1]
    cross = contractions((ann[:n], cre[n:]), (a[:n], b[n:]), n)
    # word 1's c_1 stands before the later factors, so its column holds minus its contractions
    first = -np.where(cre[n:] == 0, s1, s2) * np.exp(1j * np.pi * cre[n:] / n) * b[n:]
    second = s3 * np.exp(-1j * np.pi * ann[:n] / n) * a[:n]

    # each block written once above the diagonal and once, negated and transposed, below it
    skew = np.zeros((shared + 2, shared + 2), dtype=complex)
    skew[rows, rows + 1] = pairs
    skew[rows + 1, rows] = -pairs
    skew[:n, n:shared] = cross
    np.negative(cross.T, out=skew[n:shared, :n])
    skew[n:shared, shared] = first
    skew[shared, n:shared] = -first
    skew[:n, shared + 1] = second
    skew[shared + 1, :n] = -second
    # max and maximum propagate a NaN entry into the scale, which SkewMatrix.antisymmetric rejects
    scale = np.maximum(np.abs(cross).max(), np.abs(np.concatenate((pairs, first, second))).max())
    return SkewMatrix.antisymmetric(skew, scale, border=2)


def expectation_c1(state: SystemState) -> complex:
    """Cross-parity matrix element ``<psi(t)| c_1 |psi(t)>``."""
    first, second_adjoint = vacuum_expectation(_c1_bordered(state), border=2)
    phase = np.exp(-1j * state.gamma)
    # the minus sign undoes moving c_1 (c_1^dag) past the N - 1 factors after it
    return -(phase * first + 1j * np.conj(phase * second_adjoint)) / (2.0 * np.sqrt(state.grid.n_sites))


def magnetization(state: SystemState) -> MagnetizationSample:
    """Site-summed (mx, my, mz) of the current state.

    mx and my come from the cross-parity ``<c_1>`` (with
    ``<c_1^dag> = conj <c_1>``); mz is diagonal in the BCS amplitudes.
    """
    c1 = expectation_c1(state)
    n = state.grid.n_sites
    mz = float(
        np.sum(np.abs(state.v_plus) ** 2 - np.abs(state.u_plus) ** 2)
        + np.sum(np.abs(state.v_minus) ** 2 - np.abs(state.u_minus) ** 2)
    )
    return MagnetizationSample(
        time=state.time,
        mx=2.0 * n * float(np.real(c1)),
        my=-2.0 * n * float(np.imag(c1)),
        mz=mz,
    )


def run_series(driver: DriverSpec, grid: MomentumGrid, schedule, threads: int = 1):
    """Magnetization samples along a driver schedule, in schedule order.

    For a quench the schedule lists sample times, for kicks it lists kick
    counts, and kick samples are stroboscopic, taken just after the n-th
    kick.  Every sample is one closed-form propagation from the initial
    state (a Floquet power for kicks), so its value does not depend on the
    other schedule entries, and it is labelled by its own entry.
    """
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
        with ThreadPoolExecutor(max_workers=threads) as pool:
            samples = list(pool.map(magnetization, states))
    else:
        samples = [magnetization(s) for s in states]
    return [replace(s, time=float(x)) for x, s in zip(schedule, samples)]
