"""Brute-force exact diagonalization on the full 2^N spin Hilbert space.

Independent oracle for N <= 12: exact quench/kick trajectories,
ground-state parity checks, and the construction of the momentum-space
sub-ground states in the spin basis (through the Jordan-Wigner map with the
string over sites 1..j-1 and sigma^z = 2 c^dag c - 1, so spin-down is the
fermion vacuum).

Basis convention: sigma^z product states, site 1 stored in the lowest-order
bit, bit value 1 meaning spin up (occupied).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .model import MomentumGrid

__all__ = [
    "DenseState",
    "build_hamiltonian",
    "evolve_exact",
    "apply_kick",
    "measure",
    "ground_parity",
    "build_momentum_sgs",
    "ferro_state",
    "cat_state",
    "quench_trajectory",
    "kick_trajectory",
]

MAX_SITES = 12
#: times evolved together by quench_trajectory, bounding its (2^N, T) arrays
_TIME_BLOCK = 64


@dataclass(frozen=True)
class DenseState:
    """Normalized state vector in the full 2^N spin basis."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_sites > MAX_SITES:
            raise ValueError(f"dense oracle limited to N <= {MAX_SITES}")
        if self.amplitudes.shape != (2**self.n_sites,):
            raise ValueError("amplitude vector has wrong length")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi| = {norm}")


def _check_sites(n_sites: int):
    if n_sites < 4 or n_sites > MAX_SITES or n_sites % 2 != 0:
        raise ValueError(f"n_sites must be even with 4 <= N <= {MAX_SITES}, got {n_sites}")


def _popcount(n_sites: int) -> np.ndarray:
    """Number of up spins (occupied sites) of each of the 2^N basis states."""
    states = np.arange(2**n_sites)
    return sum((states >> j) & 1 for j in range(n_sites))


def _real_times(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``m @ z`` for a real matrix ``m`` and a complex ``z``, without upcasting ``m``."""
    return m @ z.real + 1j * (m @ z.imag)


def build_hamiltonian(n_sites: int, g: float) -> np.ndarray:
    """Dense 2^N x 2^N matrix of the periodic transverse-field Ising chain."""
    _check_sites(n_sites)
    dim = 2**n_sites
    states = np.arange(dim)
    h = np.zeros((dim, dim))
    # -g sum_j sigma^z_j
    h[states, states] = -g * (2.0 * _popcount(n_sites) - n_sites)
    # -sum_j sigma^x_j sigma^x_{j+1} with periodic closure
    for j in range(n_sites):
        mask = (1 << j) | (1 << ((j + 1) % n_sites))
        h[states, states ^ mask] -= 1.0
    return h


def evolve_exact(state: DenseState, h: np.ndarray, t: float) -> DenseState:
    """Evolve by ``exp(-i h t)`` through a full eigendecomposition."""
    energies, vectors = np.linalg.eigh(h)
    coeff = vectors.conj().T @ state.amplitudes
    psi = vectors @ (np.exp(-1j * energies * t) * coeff)
    psi /= np.linalg.norm(psi)
    return DenseState(state.n_sites, psi)


def apply_kick(state: DenseState, phi: float) -> DenseState:
    """Global z-rotation ``exp(-i (phi/2) sum_j sigma^z_j)``."""
    phase = np.exp(-1j * (phi / 2.0) * (2.0 * _popcount(state.n_sites) - state.n_sites))
    return DenseState(state.n_sites, phase * state.amplitudes)


def _apply_pauli(psi: np.ndarray, n_sites: int, axis: str, site: int) -> np.ndarray:
    bit = 1 << (site - 1)
    states = np.arange(2**n_sites)
    if axis == "z":
        sign = np.where(states & bit, 1.0, -1.0)
        return sign * psi
    flipped = states ^ bit
    if axis == "x":
        return psi[flipped]
    if axis == "y":
        # <up|sigma^y|down> = -i, <down|sigma^y|up> = +i
        factor = np.where(states & bit, -1j, 1j)
        return factor * psi[flipped]
    raise ValueError(f"unknown axis {axis!r}")


def measure(state: DenseState, axis: str, site: int) -> float:
    """Single-site Pauli expectation ``<sigma^axis_site>``."""
    if not 1 <= site <= state.n_sites:
        raise ValueError(f"site {site} out of range")
    acted = _apply_pauli(state.amplitudes, state.n_sites, axis, site)
    return float(np.real(np.vdot(state.amplitudes, acted)))


def _parity_diag(n_sites: int) -> np.ndarray:
    """Fermion parity of each basis state: +1 for even occupation."""
    return np.where(_popcount(n_sites) % 2 == 0, 1.0, -1.0)


def ground_parity(n_sites: int, g: float) -> str:
    """Fermion parity of the nondegenerate ground state, 'even' or 'odd'."""
    _check_sites(n_sites)
    energies, vectors = np.linalg.eigh(build_hamiltonian(n_sites, g))
    if energies[1] - energies[0] < 1e-10:
        raise ValueError("ground space is degenerate; use the cat-state basis")
    gs = vectors[:, 0]
    expectation = float(np.sum(_parity_diag(n_sites) * np.abs(gs) ** 2))
    if abs(abs(expectation) - 1.0) > 1e-8:
        raise ValueError("ground state has no definite fermion parity")
    return "even" if expectation > 0 else "odd"


def _apply_cdag(psi: np.ndarray, n_sites: int, site: int) -> np.ndarray:
    """Real-space fermion creation via the Jordan-Wigner string."""
    dim = 2**n_sites
    bit = 1 << (site - 1)
    states = np.arange(dim)
    empty = (states & bit) == 0
    below = states & (bit - 1)
    string = (-1) ** _popcount(n_sites)[below]
    out = np.zeros(dim, dtype=complex)
    src = states[empty]
    out[src | bit] = string[empty] * psi[src]
    return out


def _apply_ckdag(psi: np.ndarray, n_sites: int, k: float) -> np.ndarray:
    """Momentum-space creation ``(e^{i pi/4}/sqrt(N)) sum_j e^{ikj} c^dag_j``."""
    out = np.zeros_like(psi, dtype=complex)
    for j in range(1, n_sites + 1):
        out += np.exp(1j * k * j) * _apply_cdag(psi, n_sites, j)
    return np.exp(1j * np.pi / 4.0) / np.sqrt(n_sites) * out


def build_momentum_sgs(n_sites: int, sector: str, g: float) -> DenseState:
    """Momentum-space sub-ground state realized in the 2^N spin basis.

    ``sector`` is 'even' or 'odd'.  Built by applying the per-mode BCS pair
    operators (and, in the odd sector, the k = 0 occupation) to the
    all-down vacuum through the Jordan-Wigner map.
    """
    _check_sites(n_sites)
    if n_sites > 10:
        raise ValueError("momentum-state constructor limited to N <= 10")
    grid = MomentumGrid(n_sites)
    psi = np.zeros(2**n_sites, dtype=complex)
    psi[0] = 1.0  # all spins down = fermion vacuum
    if sector == "even":
        modes = grid.positive_plus()
    elif sector == "odd":
        modes = grid.positive_minus()
        psi = _apply_ckdag(psi, n_sites, 0.0)
    else:
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    for mode in modes:
        k = mode.momentum
        sin_half, cos_half = model.bogoliubov_angle(k, g)
        paired = _apply_ckdag(_apply_ckdag(psi, n_sites, -k), n_sites, k)
        psi = cos_half * psi + sin_half * paired
    psi /= np.linalg.norm(psi)
    return DenseState(n_sites, psi)


def ferro_state(n_sites: int, direction: str = "right") -> DenseState:
    """Fully polarized product state along +x ('right') or -x ('left')."""
    _check_sites(n_sites)
    dim = 2**n_sites
    amp = np.full(dim, (1.0 / np.sqrt(2.0)) ** n_sites, dtype=complex)
    if direction == "left":
        amp *= (-1.0) ** _popcount(n_sites)
    elif direction != "right":
        raise ValueError(f"direction must be 'right' or 'left', got {direction!r}")
    return DenseState(n_sites, amp)


def cat_state(n_sites: int, parity: str) -> DenseState:
    """Equal-weight superposition of the two ferromagnetic states."""
    right = ferro_state(n_sites, "right").amplitudes
    left = ferro_state(n_sites, "left").amplitudes
    if parity == "even":
        psi = (right + left) / np.sqrt(2.0)
    elif parity == "odd":
        psi = (right - left) / np.sqrt(2.0)
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return DenseState(n_sites, psi)


def _magnetizations(state: DenseState):
    n = state.n_sites
    mx = n * measure(state, "x", 1)
    my = n * measure(state, "y", 1)
    mz = sum(measure(state, "z", j) for j in range(1, n + 1))
    return mx, my, mz


def quench_trajectory(n_sites: int, g_f: float, times) -> np.ndarray:
    """Exact (mx, my, mz) samples after a quench from the +x ferro state.

    All times evolve together: the eigenbasis coefficients of a block of
    times form a (2^N, T) matrix, mapped back to the spin basis by two real
    products with the real eigenvectors.
    """
    h = build_hamiltonian(n_sites, g_f)
    energies, vectors = np.linalg.eigh(h)
    coeff0 = vectors.conj().T @ ferro_state(n_sites).amplitudes
    times = np.asarray(times, dtype=float)
    rows = []
    for start in range(0, len(times), _TIME_BLOCK):
        phased = np.exp(-1j * np.outer(energies, times[start:start + _TIME_BLOCK])) * coeff0[:, None]
        psi = _real_times(vectors, phased)
        psi /= np.linalg.norm(psi, axis=0)
        rows += [_magnetizations(DenseState(n_sites, col)) for col in psi.T]
    return np.array(rows)


def kick_trajectory(n_sites: int, g: float, tau: float, epsilon: float, n_kicks: int) -> np.ndarray:
    """Exact stroboscopic (mx, my, mz) just after each of the first n kicks."""
    h = build_hamiltonian(n_sites, g)
    energies, vectors = np.linalg.eigh(h)
    phases = np.exp(-1j * energies * tau)
    phi = np.pi * (1.0 - epsilon)
    kick_phase = np.exp(-1j * (phi / 2.0) * (2.0 * _popcount(n_sites) - n_sites))
    psi = ferro_state(n_sites).amplitudes
    rows = []
    for _ in range(n_kicks):
        psi = kick_phase * _real_times(vectors, phases * _real_times(vectors.T, psi))
        psi /= np.linalg.norm(psi)
        rows.append(_magnetizations(DenseState(n_sites, psi)))
    return np.array(rows)
