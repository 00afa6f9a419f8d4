"""Magnetizations of the evolving two-sector BCS state.

The longitudinal components require the cross-parity matrix element
``<psi(t)| c_1 |psi(t)>``, the sum of ``<psi_e| c_1 |psi_o>`` and
``<psi_o| c_1 |psi_e>``.  Each is a single fermion word of length 2N,
filled straight from the ``u, v`` arrays: the bra (the adjoint of the
other sector's ket), the Fourier sum ``sum_k e^{ik} c_k`` of ``c_1`` on the
ket's grid as one row, and the ket.  One sample therefore costs two
Pfaffians.  Wick's theorem is linear in each factor, so each word equals
the sum over Fourier components: the k = 0 component annihilates the odd
ket's ``c^dag_0``, and the +-k components break the BCS pair k into
``v_k (e^{ik} c^dag_{-k} - e^{-ik} c^dag_k)``.

Every bra and ket factor is a one-mode factor, one annihilated and one
created mode, so its contractions are the gather of
:func:`isingring.wick.contractions`, kappa(m - m') over grid indices.  The
``c_1`` row is the exception: it meets only the later factors of its own
sector, where kappa is a Kronecker delta, so its entries are ``c_1``'s own
coefficients at those factors' created indices.

Each BCS mode factor enters division-free through the identity
``eta^dag_k c^dag_{-k} |vac> = (u + v c^dag_k c^dag_{-k}) |vac>``, which
stays regular when a mode passes through v = 0 (as happens under kicks).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import DriverSpec, SystemState, evolve_kick_step, evolve_quench, init_ferro
from .model import MomentumGrid
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


def _c1_words(state: SystemState):
    """``[(coefficient, contractions), ...]`` whose weighted vacuum expectations sum to ``<c_1>``.

    The first word is ``<psi_e| c_1 |psi_o>``, the second
    ``<psi_o| c_1 |psi_e>``, each given by its 2N x 2N contraction matrix;
    ``c_1`` enters without its ``N^{-1/2}``, which sits in the coefficients.
    Each bra is its ket's adjoint.  The rows are

        word 1: <psi_e| (N rows), c_1 on the odd grid, |psi_o> (N - 2 rows), c^dag_0
        word 2: c_0, <psi_o| (N - 2 rows), c_1 on the even grid, |psi_e> (N rows)
    """
    n = state.grid.n_sites
    s1, s2, s3 = _TERM_SIGNS
    even_pos, odd_pos = np.arange(1, n, 2), np.arange(2, n, 2)
    # [word, (annihilated, created), row]; index 0 with coefficient 0 is an absent part
    index = np.zeros((2, 2, 2 * n), dtype=int)
    coeff = np.zeros((2, 2, 2 * n), dtype=complex)

    _fill_bra(index[0, :, :n], coeff[0, :, :n], even_pos, state.u_plus, state.v_plus)
    _fill_ket(index[0, :, n + 1:-1], coeff[0, :, n + 1:-1], odd_pos, state.u_minus, state.v_minus)
    coeff[0, 1, -1] = 1.0

    coeff[1, 0, 0] = 1.0
    _fill_bra(index[1, :, 1:n - 1], coeff[1, :, 1:n - 1], odd_pos, state.u_minus, state.v_minus)
    _fill_ket(index[1, :, n:], coeff[1, :, n:], even_pos, state.u_plus, state.v_plus)

    first, second = (contractions(index[w], coeff[w], n) for w in (0, 1))
    # the c_1 row meets only later factors of its own sector, where kappa is a delta
    m, b = index[0, 1, n + 1:], coeff[0, 1, n + 1:]
    first[n, n + 1:] = np.where(m == 0, s1, s2) * np.exp(1j * np.pi * m / n) * b
    m, b = index[1, 1, n:], coeff[1, 1, n:]
    second[n - 1, n:] = s3 * np.exp(1j * np.pi * m / n) * b

    phase = np.exp(-1j * state.gamma)
    pref12 = phase / (2.0 * np.sqrt(n))
    pref3 = 1j * np.conj(phase) / (2.0 * np.sqrt(n))
    return [(pref12, first), (pref3, second)]


def expectation_c1(state: SystemState) -> complex:
    """Cross-parity matrix element ``<psi(t)| c_1 |psi(t)>``."""
    return sum(coeff * vacuum_expectation(word) for coeff, word in _c1_words(state))


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

    For a quench the schedule lists sample times (each reached exactly from
    t = 0, the generator being time-independent).  For kicks it lists kick
    counts and samples are stroboscopic, taken just after the n-th kick;
    each sample is one closed-form jump from the previous one, whatever the
    number of kicks between them.
    """
    schedule = list(schedule)
    if not np.all(np.isfinite(schedule)):
        raise ValueError("schedule entries must be finite")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if not schedule:
        return []

    states = []
    if driver.kind == "quench":
        if any(t < 0 for t in schedule):
            raise ValueError("quench sample times must be nonnegative")
        base = init_ferro(grid)
        states = [evolve_quench(base, driver.g_f, t) for t in schedule]
    else:
        if any(int(s) != s or s < 0 for s in schedule):
            raise ValueError("kick schedule entries must be nonnegative integers")
        state = init_ferro(grid)
        done = 0
        for target in map(int, schedule):
            state = evolve_kick_step(state, driver.g, driver.tau, driver.epsilon, target - done)
            done = target
            states.append(state)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            samples = list(pool.map(magnetization, states))
    else:
        samples = [magnetization(s) for s in states]
    if driver.kind == "kick":
        samples = [
            MagnetizationSample(time=float(nk), mx=s.mx, my=s.my, mz=s.mz)
            for nk, s in zip(schedule, samples)
        ]
    return samples
