"""Brute-force exact diagonalization in the spin basis.

Independent oracle for N <= 12: exact quench/kick trajectories,
ground-state parity checks, and the construction of the momentum-space
sub-ground states in the spin basis (through the Jordan-Wigner map with the
string over sites 1..j-1 and sigma^z = 2 c^dag c - 1, so spin-down is the
fermion vacuum).  It shares no code with the Pfaffian engine.

The trajectories and ``ground_parity`` run in the zero-momentum sector of
the translation T by one site.  For the trajectories this is exact: T
commutes with the periodic Hamiltonian and with the kick, a rotation about
z of every spin alike, and the +x ferro state is T-invariant, so the state
never leaves the eigenvalue-1 space of T.  ``ground_parity`` explains why
the ground state of each parity lies there too.  That space is spanned by
one normalized orbit sum per translation orbit of basis states (108 at
N = 10 and 352 at N = 12, against 2^N).  The sector Hamiltonian is
assembled directly in that basis and diagonalized, the only eigensolve in
this module; states are mapped back to the 2^N spin basis only to be
measured.  The other helpers act on the full 2^N space:
``build_hamiltonian``, the reference the sector Hamiltonian is tested
against, and the momentum-space sub-ground states, ferro states and cat
states, in which the correspondence between momentum space and real space
is checked.

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
    "ground_parity",
    "build_momentum_sgs",
    "ferro_state",
    "cat_state",
    "quench_trajectory",
    "kick_trajectory",
]

MAX_SITES = 12
#: times or kicks measured together by the trajectories, bounding their (2^N, T) arrays
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
        if not abs(norm - 1.0) <= 1e-12:
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


def ground_parity(n_sites: int, g: float) -> str:
    """Fermion parity of the nondegenerate ground state, 'even' or 'odd'.

    Diagonalizes in the zero-momentum sector, as the trajectories do, which
    is enough: in the sigma^z basis every off-diagonal entry of H is -1, and
    bond flips connect all states of one parity, so by Perron-Frobenius each
    parity block has a unique, positive ground state.  T commutes with H and
    with the parity and permutes the basis, so it maps that state to a
    positive ground state of the same block, itself: the state is
    T-invariant and lies in the sector.  So the ground state, and any
    near-degeneracy with the other parity's ground state, both show up
    there.  Every translation orbit has one popcount parity, so the
    parity of the ground vector is read off per column.
    """
    _check_sites(n_sites)
    col, _, energies, vectors, _ = _sector_eigh(n_sites, g)
    if energies[1] - energies[0] < 1e-10:
        raise ValueError("ground space is degenerate; use the cat-state basis")
    parity = np.empty(len(energies))
    parity[col] = (-1.0) ** _popcount(n_sites)
    expectation = float(parity @ vectors[:, 0] ** 2)
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
    grid = MomentumGrid(n_sites)
    psi = np.zeros(2**n_sites, dtype=complex)
    psi[0] = 1.0  # all spins down = fermion vacuum
    if sector == "even":
        modes = grid.plus
    elif sector == "odd":
        modes = grid.minus
        psi = _apply_ckdag(psi, n_sites, 0.0)
    else:
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    for k in np.pi * modes / n_sites:
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


def _orbit_basis(n_sites: int):
    """The zero-momentum isometry P as ``(col, weight)``, two length-2^N arrays.

    Basis state s lies in column ``col[s]``, one column per translation orbit
    (the cyclic rotations of s, numbered by their smallest member), with
    weight ``1/sqrt(orbit size)``: column r of P is the normalized sum of the
    states of orbit r.
    """
    states = np.arange(2**n_sites)
    full = 2**n_sites - 1
    rotations = np.array([((states << j) | (states >> (n_sites - j))) & full
                          for j in range(n_sites)])
    orbit_size = n_sites / (rotations == states).sum(axis=0)
    col = np.unique(rotations.min(axis=0), return_inverse=True)[1]
    return col, 1.0 / np.sqrt(orbit_size)


def _sector_hamiltonian(n_sites: int, g: float, col: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``P^T H P`` for the Hamiltonian of build_hamiltonian, scatter-added without forming H."""
    h = np.zeros((col.max() + 1,) * 2)
    # the field term is the same on every state of an orbit
    h[col, col] = -g * (2.0 * _popcount(n_sites) - n_sites)
    states = np.arange(2**n_sites)
    for j in range(n_sites):
        flipped = states ^ ((1 << j) | (1 << ((j + 1) % n_sites)))
        np.add.at(h, (col, col[flipped]), -weight * weight[flipped])
    return h


def _sector_eigh(n_sites: int, g: float):
    """Orbit basis, eigenpairs of ``P^T H P``, and ``P^T`` of the +x ferro state."""
    col, weight = _orbit_basis(n_sites)
    energies, vectors = np.linalg.eigh(_sector_hamiltonian(n_sites, g, col, weight))
    # every amplitude of the ferro state is 2^(-N/2)
    ferro = np.bincount(col, weights=weight) / 2.0 ** (n_sites / 2)
    return col, weight, energies, vectors, ferro


def _magnetizations(n_sites: int, col: np.ndarray, weight: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(mx, my, mz) of each column of a block of orbit-basis coefficients.

    The block is mapped back to the spin basis, ``weight * coeffs[col]``, and
    measured as a whole: mx = N <sigma^x_1>, my = N <sigma^y_1>, and mz the
    sum of <sigma^z_j> over all sites.
    """
    psi = weight[:, None] * coeffs[col]
    norm = np.linalg.norm(psi, axis=0)
    if not np.all(np.abs(norm - 1.0) <= 1e-12):
        raise ValueError(f"state not normalized: |psi| = {norm}")
    psi /= norm
    # sigma^x_1 and sigma^y_1 pair each even state s (site 1 down) with s + 1 (site 1 up);
    # with <up|sigma^y|down> = -i
    pair = (psi[0::2].conj() * psi[1::2]).sum(axis=0)
    z_total = 2.0 * _popcount(n_sites) - n_sites
    return np.column_stack([2 * n_sites * pair.real, -2 * n_sites * pair.imag,
                            z_total @ np.abs(psi) ** 2])


def quench_trajectory(n_sites: int, g_f: float, times) -> np.ndarray:
    """Exact (mx, my, mz) samples after a quench from the +x ferro state.

    Runs in the zero-momentum sector. All times of a block evolve together:
    their eigenbasis coefficients form an (R, T) matrix, mapped to the orbit
    basis by two real products with the real eigenvectors.
    """
    _check_sites(n_sites)
    col, weight, energies, vectors, ferro = _sector_eigh(n_sites, g_f)
    coeff0 = vectors.T @ ferro
    times = np.asarray(times, dtype=float)
    rows = []
    for start in range(0, len(times), _TIME_BLOCK):
        phased = np.exp(-1j * np.outer(energies, times[start:start + _TIME_BLOCK])) * coeff0[:, None]
        rows.extend(_magnetizations(n_sites, col, weight, _real_times(vectors, phased)))
    return np.array(rows)


def kick_trajectory(n_sites: int, g: float, tau: float, epsilon: float, n_kicks: int) -> np.ndarray:
    """Exact stroboscopic (mx, my, mz) just after each of the first n kicks.

    Runs in the zero-momentum sector, where the kick is diagonal: the
    popcount is the same for every state of an orbit.
    """
    _check_sites(n_sites)
    col, weight, energies, vectors, psi = _sector_eigh(n_sites, g)
    phases = np.exp(-1j * energies * tau)
    phi = np.pi * (1.0 - epsilon)
    kick_phase = np.empty(len(psi), dtype=complex)
    kick_phase[col] = np.exp(-1j * (phi / 2.0) * (2.0 * _popcount(n_sites) - n_sites))
    rows = []
    for start in range(0, n_kicks, _TIME_BLOCK):
        block = np.empty((len(psi), min(_TIME_BLOCK, n_kicks - start)), dtype=complex)
        for i in range(block.shape[1]):
            psi = kick_phase * _real_times(vectors, phases * _real_times(vectors.T, psi))
            psi /= np.linalg.norm(psi)
            block[:, i] = psi
        rows.extend(_magnetizations(n_sites, col, weight, block))
    return np.array(rows)
