"""Time evolution of the two-parity-sector BCS state.

Both implemented drivers (sudden quench and periodic delta kick) are
piecewise time-independent, so all modes advance together, as arrays, by
exact 2x2 propagators in closed form; a kick series takes one closed-form
power of the one-period Floquet matrix per sample, not a loop over kicks.
The odd-sector special modes are frozen in the occupation
``|vac>_{-pi} |0>``; only their accumulated phase ``gamma`` evolves.

A state holds its modes in the order of the grid's ``momenta`` table,
whose ``cos_k`` and ``sin_k`` tables give their 2x2 Hamiltonians, so a
sample evaluates no function of k.  Each new state is checked once for
the drift of ``|u|^2 + |v|^2`` from 1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .model import MomentumGrid, _integer, _real

__all__ = ["SystemState", "DriverSpec", "init_ferro", "evolve_quench", "evolve_kick_step"]

NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SystemState:
    """Per-mode BCS amplitudes of both sectors plus the special-mode phase.

    ``u[i], v[i]`` belong to the i-th momentum of ``grid.momenta``, the
    even sector's positive momenta and then the odd sector's, both
    ascending; ``u_plus, v_plus`` and ``u_minus, v_minus`` are read-only
    views of them over each sector.  ``u`` and ``v`` must be complex128
    arrays.  ``gamma`` is the accumulated special-mode phase (the
    odd-sector component carries ``exp(-i gamma)``).  A state equals only
    itself and hashes by identity.
    """

    grid: MomentumGrid
    u: np.ndarray
    v: np.ndarray
    gamma: float
    time: float

    u_plus = property(lambda self: _read_only(self.u[:len(self.grid.plus)]))
    v_plus = property(lambda self: _read_only(self.v[:len(self.grid.plus)]))
    u_minus = property(lambda self: _read_only(self.u[len(self.grid.plus):]))
    v_minus = property(lambda self: _read_only(self.v[len(self.grid.plus):]))

    def __post_init__(self):
        if not isinstance(self.grid, MomentumGrid):
            raise ValueError(f"grid must be a MomentumGrid, got {self.grid!r}")
        modes = (self.grid.n_sites - 1,)
        shapes = (getattr(self.u, "shape", None), getattr(self.v, "shape", None))
        if shapes != (modes, modes):
            raise ValueError(f"amplitude array shapes {shapes} do not match the grid's {modes}")
        for name in ("u", "v"):
            dtype = getattr(self, name).dtype
            if dtype != complex:
                raise ValueError(f"{name} must be a complex128 array, got dtype {dtype}")
        for name in ("gamma", "time"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        drift = np.abs(np.abs(self.u) ** 2 + np.abs(self.v) ** 2 - 1.0).max()
        # negated so that a NaN drift fails the check too
        if not drift <= NORM_TOL:
            raise ValueError(f"mode normalization drift {drift:.3e} exceeds {NORM_TOL}")


def _read_only(view: np.ndarray) -> np.ndarray:
    """``view`` with its writeable flag cleared, so that a sector view cannot write to its state."""
    view.flags.writeable = False
    return view


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
            object.__setattr__(self, name, _real(getattr(self, name), name))


def init_ferro(grid: MomentumGrid) -> SystemState:
    """The +x fully polarized state: ``(u, v) = (sin k/2, cos k/2)`` per mode."""
    half = grid.momenta / 2.0
    return SystemState(grid, np.sin(half).astype(complex), np.cos(half).astype(complex), gamma=0.0, time=0.0)


def _kick_count(kicks, name: str = "kicks") -> int:
    """``kicks`` as an int in [0, 2^53]: a larger count is not exact as the double that scales the Floquet angle."""
    n = _integer(kicks, name, lower=0)
    if n > 2**53:
        raise ValueError(f"{name} must be a nonnegative integer at most 2^53, got {n!r}")
    return n


def _propagate(state: SystemState, g: float, t: float, phi: float = 0.0, kicks: int = 1):
    """Apply ``F_k^kicks``, ``F_k = diag(e^{i phi}, e^{-i phi}) exp(-i H_k t)``, to every mode.

    ``H_k = [[a, b], [b, -a]]`` is traceless, so ``exp(-i H_k t) =
    cos(w t) I - i sin(w t) / w H_k`` with ``w = hypot(a, b)``, and ``F_k =
    [[alpha, beta], [-conj beta, conj alpha]]`` is in SU(2).  Its power is
    ``cos(n theta) I + sin(n theta) / sin(theta) (F - cos(theta) I)``; theta
    comes from atan2, which keeps full precision near ``F = +-I``.
    """
    grid, u, v = state.grid, state.u, state.v
    # minus (a, b) = mode_coefficients(k, g), from the tables
    minus_a, minus_b = -2.0 * (grid.cos_k + g), 2.0 * grid.sin_k
    w = np.hypot(minus_a, minus_b)  # >= 2 |sin k| > 0 on every normal mode
    wt = w * t
    sin_over_w = np.sin(wt) / w
    # alpha = cos(w t) - i sin(w t) a / w and beta = -i sin(w t) b / w, before the kick phase
    alpha = np.empty(len(w), dtype=complex)
    beta = np.zeros(len(w), dtype=complex)
    np.cos(wt, out=alpha.real)
    np.multiply(sin_over_w, minus_a, out=alpha.imag)
    np.multiply(sin_over_w, minus_b, out=beta.imag)
    if phi:
        phase = cmath.exp(1j * phi)
        alpha *= phase
        beta *= phase
    if kicks != 1:
        sin_theta = np.hypot(alpha.imag, np.abs(beta))
        theta = np.arctan2(sin_theta, alpha.real)
        # sin(theta) = 0 means F = +-I exactly, where F - cos(theta) I vanishes
        ratio = np.divide(np.sin(kicks * theta), sin_theta,
                          out=np.zeros_like(sin_theta), where=sin_theta > 0)
        alpha = np.cos(kicks * theta) + 1j * ratio * alpha.imag
        beta = ratio * beta
    return SystemState(grid, alpha * u + beta * v, np.conj(alpha) * v - np.conj(beta) * u,
                       state.gamma - 2.0 * t * kicks, state.time + t * kicks)


def evolve_quench(state: SystemState, g_f: float, dt: float) -> SystemState:
    """Advance by ``dt`` under the Ising Hamiltonian at field ``g_f``.

    The special-mode phase integrates to ``gamma -= 2 dt`` independently of
    ``g_f`` (the two diagonal special-mode entries sum to -4).
    """
    return _propagate(state, _real(g_f, "g_f"), _real(dt, "dt", lower=0))


def evolve_kick_step(state: SystemState, g: float, tau: float, epsilon: float,
                     kicks: int = 1) -> SystemState:
    """``kicks`` periods, each Hamiltonian evolution over ``tau`` and then the kick.

    The kick generator per normal mode is ``2 diag(-1, 1)``, i.e. the
    propagator ``diag(e^{i phi}, e^{-i phi})`` with ``phi = pi (1 - eps)``.
    On the frozen special modes the kick phases ``e^{+i phi/2}`` (from
    ``|vac>_{-pi}``) and ``e^{-i phi/2}`` (from ``|0>``) cancel, so gamma
    only accumulates the Hamiltonian part -2 tau per kick.  Any number of
    kicks costs one closed-form Floquet power.
    """
    g, tau, epsilon = (_real(x, name) for x, name in ((g, "g"), (tau, "tau"), (epsilon, "epsilon")))
    return _propagate(state, g, tau, np.pi * (1.0 - epsilon), _kick_count(kicks))
