"""Time evolution of the two-parity-sector BCS state.

Both implemented drivers (sudden quench and periodic delta kick) are
piecewise time-independent, so each step is an exact 2x2 mode propagator
rather than an ODE integration.  The odd-sector special modes are frozen in
the occupation ``|vac>_{-pi} |0>``; only their accumulated phase ``gamma``
evolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MomentumGrid, mode_hamiltonian_even

__all__ = ["SystemState", "DriverSpec", "init_ferro", "mode_unitary", "evolve_quench", "evolve_kick_step"]

NORM_TOL = 1e-10


@dataclass(frozen=True)
class SystemState:
    """Per-mode BCS amplitudes in both sectors plus the special-mode phase.

    ``u_plus[i], v_plus[i]`` belong to the i-th positive even-sector
    momentum (ascending); likewise ``u_minus, v_minus`` for the odd sector.
    ``gamma`` is the accumulated special-mode phase (the odd-sector
    component carries ``exp(-i gamma)``).
    """

    grid: MomentumGrid
    u_plus: np.ndarray
    v_plus: np.ndarray
    u_minus: np.ndarray
    v_minus: np.ndarray
    gamma: float
    time: float

    def __post_init__(self):
        n = self.grid.n_sites
        if len(self.u_plus) != n // 2 or len(self.u_minus) != n // 2 - 1:
            raise ValueError("amplitude arrays do not match the grid")
        for u, v in ((self.u_plus, self.v_plus), (self.u_minus, self.v_minus)):
            drift = np.abs(np.abs(u) ** 2 + np.abs(v) ** 2 - 1.0)
            # negated so that a NaN drift fails the check too
            if drift.size and not drift.max() <= NORM_TOL:
                raise ValueError(f"mode normalization drift {drift.max():.3e} exceeds {NORM_TOL}")


@dataclass(frozen=True)
class DriverSpec:
    """A translationally invariant drive.

    ``kind`` is 'quench' (field jumps to ``g_f`` at t = 0) or 'kick'
    (evolve with field ``g`` for ``tau``, then rotate all spins about z by
    ``pi (1 - epsilon)``, repeated).
    """

    kind: str
    g_f: float = 0.0
    g: float = 0.0
    tau: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in ("quench", "kick"):
            raise ValueError(f"kind must be 'quench' or 'kick', got {self.kind!r}")
        for name in ("g_f", "g", "tau", "epsilon"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def init_ferro(grid: MomentumGrid) -> SystemState:
    """The +x fully polarized state: ``(u, v) = (sin k/2, cos k/2)`` per mode."""
    kp = np.array([m.momentum for m in grid.positive_plus()])
    km = np.array([m.momentum for m in grid.positive_minus()])
    return SystemState(
        grid=grid,
        u_plus=np.sin(kp / 2.0).astype(complex),
        v_plus=np.cos(kp / 2.0).astype(complex),
        u_minus=np.sin(km / 2.0).astype(complex),
        v_minus=np.cos(km / 2.0).astype(complex),
        gamma=0.0,
        time=0.0,
    )


def mode_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Exact ``exp(-i h t)`` of a Hermitian 2x2 matrix.

    Splits off the trace and uses the closed form
    ``cos(w t) I - i sin(w t) d / w`` for the traceless part ``d`` with
    eigenvalues ``+-w``.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2) or np.abs(h - h.conj().T).max() > 1e-12:
        raise ValueError("mode generator must be a Hermitian 2x2 matrix")
    half_trace = 0.5 * np.real(h[0, 0] + h[1, 1])
    d = h - half_trace * np.eye(2)
    w = np.sqrt(np.real(d[0, 0]) ** 2 + np.abs(d[0, 1]) ** 2)
    if w < 1e-300:
        u = np.eye(2, dtype=complex)
    else:
        u = np.cos(w * t) * np.eye(2) - 1j * np.sin(w * t) / w * d
    return np.exp(-1j * half_trace * t) * u


def _advance_modes(momenta, u, v, g, t, kick_phase=None):
    u_out = np.empty_like(u)
    v_out = np.empty_like(v)
    for i, k in enumerate(momenta):
        prop = mode_unitary(mode_hamiltonian_even(k, g), t)
        if kick_phase is not None:
            prop = np.diag([np.conj(kick_phase), kick_phase]) @ prop
        u_out[i] = prop[0, 0] * u[i] + prop[0, 1] * v[i]
        v_out[i] = prop[1, 0] * u[i] + prop[1, 1] * v[i]
    return u_out, v_out


def evolve_quench(state: SystemState, g_f: float, dt: float) -> SystemState:
    """Advance by ``dt`` under the Ising Hamiltonian at field ``g_f``.

    The special-mode phase integrates to ``gamma -= 2 dt`` independently of
    ``g_f`` (the two diagonal special-mode entries sum to -4).
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    grid = state.grid
    kp = [m.momentum for m in grid.positive_plus()]
    km = [m.momentum for m in grid.positive_minus()]
    u_p, v_p = _advance_modes(kp, state.u_plus, state.v_plus, g_f, dt)
    u_m, v_m = _advance_modes(km, state.u_minus, state.v_minus, g_f, dt)
    return SystemState(grid, u_p, v_p, u_m, v_m, state.gamma - 2.0 * dt, state.time + dt)


def evolve_kick_step(state: SystemState, g: float, tau: float, epsilon: float) -> SystemState:
    """One kick period: Hamiltonian evolution over ``tau``, then the kick.

    The kick generator per normal mode is ``2 diag(-1, 1)``, i.e. the
    propagator ``diag(e^{i phi}, e^{-i phi})`` with ``phi = pi (1 - eps)``.
    On the frozen special modes the kick phases ``e^{+i phi/2}`` (from
    ``|vac>_{-pi}``) and ``e^{-i phi/2}`` (from ``|0>``) cancel, so gamma
    only accumulates the Hamiltonian part -2 tau per kick.
    """
    phi = np.pi * (1.0 - epsilon)
    kick_phase = np.exp(-1j * phi)  # lower component; upper gets the conjugate
    grid = state.grid
    kp = [m.momentum for m in grid.positive_plus()]
    km = [m.momentum for m in grid.positive_minus()]
    u_p, v_p = _advance_modes(kp, state.u_plus, state.v_plus, g, tau, kick_phase)
    u_m, v_m = _advance_modes(km, state.u_minus, state.v_minus, g, tau, kick_phase)
    return SystemState(grid, u_p, v_p, u_m, v_m, state.gamma - 2.0 * tau, state.time + tau)
