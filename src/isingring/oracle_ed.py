"""Brute-force exact diagonalization in the spin basis.

Independent oracle for N <= 12: exact quench/kick trajectories and
ground-state parity checks.  It shares no code with the Pfaffian engine.

The trajectories and ``ground_parity`` run in the zero-momentum sector of
the translation T by one site.  For the trajectories this is exact: T
commutes with the periodic Hamiltonian and with the kick, a rotation about
z of every spin alike, and the +x ferro state is T-invariant, so the state
never leaves the eigenvalue-1 space of T.  ``ground_parity`` explains why
the ground state of each parity lies there too.  That space is spanned by
one normalized orbit sum per translation orbit of basis states (108 at
N = 10 and 352 at N = 12, against 2^N).

Every orbit has a single popcount, so a single fermion parity, and both
the Hamiltonian and the kick conserve the parity.  With the even orbits
numbered first, the sector Hamiltonian is block-diagonal, one block per
parity (56 + 52 orbits at N = 10), and each block is diagonalized on its
own: the only eigensolves of this module.  The +x ferro state is the
equal-weight sum of its two parity components (the cat states), and a
trajectory evolves each component inside its own block, so nothing is
dropped and the trajectories stay exact.  The states are measured in the
sector basis as well: for a state ``P c``, ``<O> = c^dag (P^T O P) c`` for
any O.  The total sigma^z is one number per orbit, and sigma^-_1 flips the
parity, so ``A = P^T sigma^-_1 P`` couples only the two blocks and
``<sigma^-_1> = c_e^dag A_eo c_o + c_o^dag A_oe c_e``: as in the paper, the
parity-breaking magnetization is a matrix element between the sectors.

Basis convention: sigma^z product states, site 1 stored in the lowest-order
bit, bit value 1 meaning spin up (occupied).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import model

__all__ = ["ground_parity", "quench_trajectory", "kick_trajectory"]

MAX_SITES = 12
#: times or kicks measured together by the trajectories, bounding their (orbits, T) arrays
_TIME_BLOCK = 64


def _sites(n_sites) -> int:
    """``n_sites`` as an int, a ring size of at most ``MAX_SITES``; another raises ``ValueError``."""
    n = model._ring_size(n_sites)
    if n > MAX_SITES:
        raise ValueError(f"n_sites must be at most {MAX_SITES} for the dense oracle, got {n}")
    return n


#: up spins of each basis state at N = MAX_SITES; a smaller ring's states are the first 2^N
_POPCOUNT = np.array([s.bit_count() for s in range(2**MAX_SITES)])
_POPCOUNT.flags.writeable = False


def _popcount(n_sites: int) -> np.ndarray:
    """Number of up spins (occupied sites) of each of the 2^N basis states."""
    return _POPCOUNT[:2**n_sites]


def _real_times(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``m @ z`` for a real matrix ``m`` and a complex ``z``, without upcasting ``m``."""
    return m @ z.real + 1j * (m @ z.imag)


def ground_parity(n_sites: int, g: float) -> str:
    """Fermion parity of the nondegenerate ground state, 'even' or 'odd'.

    Diagonalizes in the zero-momentum sector, as the trajectories do, which
    is enough: in the sigma^z basis every off-diagonal entry of H is -1, and
    bond flips connect all states of one parity, so by Perron-Frobenius each
    parity block has a unique, positive ground state.  T commutes with H and
    with the parity and permutes the basis, so it maps that state to a
    positive ground state of the same block, itself: the state is
    T-invariant and lies in the sector.  So the ground state is the lowest
    level of the sector's even or odd block, whichever is lower, and a
    near-degeneracy with the other parity's ground state shows up there too.
    """
    n_sites, g = _sites(n_sites), model._real(g, "g")
    sector = _parity_blocks(n_sites, g)
    even, odd = sector.energies[:sector.even], sector.energies[sector.even:]
    levels = np.sort(np.concatenate([even[:2], odd[:2]]))
    if levels[1] - levels[0] < 1e-10:
        raise ValueError("ground space is degenerate; use the cat-state basis")
    return "even" if even[0] < odd[0] else "odd"


def _orbit_basis(n_sites: int):
    """The zero-momentum isometry P as ``(col, weight)``, two length-2^N arrays.

    Basis state s lies in column ``col[s]``, one column per translation orbit
    (the cyclic rotations of s), with weight ``1/sqrt(orbit size)``: column r
    of P is the normalized sum of the states of orbit r.  The orbits of even
    popcount come first; within each parity they are numbered by their
    smallest member.
    """
    states = np.arange(2**n_sites)
    shift = np.arange(n_sites)[:, None]
    rotations = ((states << shift) | (states >> (n_sites - shift))) & (2**n_sites - 1)
    # the parity above the smallest member: the keys of the even orbits are the lower ones
    key = rotations.min(axis=0) | (_popcount(n_sites) & 1) << n_sites
    marked = np.zeros(2 << n_sites, dtype=int)
    marked[key] = 1
    col = np.cumsum(marked)[key] - 1
    return col, 1.0 / np.sqrt(np.bincount(col)[col])


def _sector_hamiltonian(n_sites: int, g: float, col: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``P^T H P`` for ``H = -sum_j (sigma^x_j sigma^x_{j+1} + g sigma^z_j)``, without forming H.

    H commutes with T, so column r of ``P^T H P`` follows from any one member
    s of orbit r: each bond flip of s that lands in orbit t stands for the
    same flip of all 1/weight[r]^2 states of the orbit, each entering with
    ``-weight[t] * weight[r]``, so it adds ``-weight[t] / weight[r]`` to
    entry (t, r).
    """
    r = col.max() + 1
    # one state of each orbit; which one the assignment keeps does not matter
    member = np.empty(r, dtype=int)
    member[col] = np.arange(2**n_sites)
    bonds = np.array([(1 << j) | (1 << ((j + 1) % n_sites)) for j in range(n_sites)])
    flipped = member ^ bonds[:, None]
    h = np.bincount((col[flipped] * r + np.arange(r)).ravel(),
                    weights=(-weight[flipped] / weight[member]).ravel(), minlength=r * r).reshape(r, r)
    # -g sum_j sigma^z_j, the same on every state of an orbit
    h.reshape(-1)[::r + 1] -= g * (2.0 * _popcount(n_sites)[member] - n_sites)
    return h


class _ParityBlocks(NamedTuple):
    """The zero-momentum sector at one field, split by fermion parity.

    Orbits ``[:even]`` have even parity and the rest odd.  ``energies``
    holds the levels of the even block, then those of the odd block, and
    ``vectors`` the eigenvectors of each block.
    """

    n_sites: int
    even: int
    energies: np.ndarray
    vectors: tuple
    z_total: np.ndarray  # sum of sigma^z_j over the sites, per orbit
    lower: tuple  # the blocks A_eo and A_oe of A = P^T sigma^-_1 P, which is zero within each block
    ferro: np.ndarray  # P^T of the +x ferro state


def _parity_blocks(n_sites: int, g: float) -> _ParityBlocks:
    col, weight = _orbit_basis(n_sites)
    r = col.max() + 1
    # state 1, one up spin, is the smallest odd-parity state, so it opens the odd block
    e = int(col[1])
    h = _sector_hamiltonian(n_sites, g, col, weight)
    (e_even, v_even), (e_odd, v_odd) = np.linalg.eigh(h[:e, :e]), np.linalg.eigh(h[e:, e:])
    z_total = np.empty(r)
    z_total[col] = 2.0 * _popcount(n_sites) - n_sites
    # sigma^-_1 takes each state s with site 1 up (s odd) to s - 1
    up = np.arange(1, 2**n_sites, 2)
    lower = np.bincount(col[up - 1] * r + col[up], weights=weight[up - 1] * weight[up],
                        minlength=r * r).reshape(r, r)
    a_eo, a_oe = lower[:e, e:].copy(), lower[e:, :e].copy()
    # every amplitude of the ferro state is 2^(-N/2)
    ferro = np.bincount(col, weights=weight) / 2.0 ** (n_sites / 2)
    return _ParityBlocks(n_sites, e, np.concatenate([e_even, e_odd]), (v_even, v_odd),
                         z_total, (a_eo, a_oe), ferro)


def _measure(sector: _ParityBlocks, c: np.ndarray) -> np.ndarray:
    """(mx, my, mz) of each column of a block of sector coefficients.

    The rows ``[:sector.even]`` hold the even-parity component of a state
    and the rest its odd-parity component.  mx = N <sigma^x_1> and
    my = N <sigma^y_1> come from ``<sigma^-_1>`` (with
    <up|sigma^y|down> = -i), mz is the sum of <sigma^z_j> over all sites.
    """
    probability = np.abs(c) ** 2
    norm2 = probability.sum(axis=0)
    norm = np.sqrt(norm2)
    if not np.all(np.abs(norm - 1.0) <= 1e-12):
        raise ValueError(f"state not normalized: |psi| = {norm}")
    (a_eo, a_oe), c_even, c_odd = sector.lower, c[:sector.even], c[sector.even:]
    lowered = ((c_even.conj() * (a_eo @ c_odd)).sum(axis=0)
               + (c_odd.conj() * (a_oe @ c_even)).sum(axis=0)) / norm2
    n = sector.n_sites
    return np.column_stack([2 * n * lowered.real, -2 * n * lowered.imag,
                            sector.z_total @ probability / norm2])


def quench_trajectory(n_sites: int, g_f: float, times) -> np.ndarray:
    """Exact (mx, my, mz) samples after a quench from the +x ferro state.

    Runs in the two parity blocks of the zero-momentum sector. All times of
    a block evolve together: per parity, their eigenbasis coefficients form
    an (R, T) matrix, mapped to the orbit basis by two real products with
    the block's real eigenvectors.
    """
    n_sites, g_f = _sites(n_sites), model._real(g_f, "g_f")
    times = model._reals(times, "times entry")
    sector = _parity_blocks(n_sites, g_f)
    e = sector.even
    (v_even, v_odd), ferro = sector.vectors, sector.ferro
    start = np.concatenate([v_even.T @ ferro[:e], v_odd.T @ ferro[e:]])
    rows = np.empty((len(times), 3))
    for first in range(0, len(times), _TIME_BLOCK):
        block = times[first:first + _TIME_BLOCK]
        phased = np.exp(-1j * np.outer(sector.energies, block)) * start[:, None]
        rows[first:first + len(block)] = _measure(
            sector, np.concatenate([_real_times(v_even, phased[:e]), _real_times(v_odd, phased[e:])]))
    return rows


def kick_trajectory(n_sites: int, g: float, tau: float, epsilon: float, n_kicks: int) -> np.ndarray:
    """Exact stroboscopic (mx, my, mz) just after each of the first n kicks.

    Runs in the two parity blocks of the zero-momentum sector, where the
    kick is diagonal: the popcount is the same for every state of an orbit.
    Each block advances by one precomputed period, the evolution over tau
    followed by the kick, and the state is renormalized after every kick.
    """
    n_sites = _sites(n_sites)
    g, tau, epsilon = (model._real(x, name) for x, name in ((g, "g"), (tau, "tau"), (epsilon, "epsilon")))
    n_kicks = model._integer(n_kicks, "n_kicks", lower=0)
    sector = _parity_blocks(n_sites, g)
    e = sector.even
    (v_even, v_odd), ferro = sector.vectors, sector.ferro
    # e^{-i (phi/2) sum_j sigma^z_j} after e^{-i H tau}, with phi = pi (1 - epsilon)
    kick = np.exp(-1j * (np.pi * (1.0 - epsilon) / 2.0) * sector.z_total)[:, None]
    phased = np.exp(-1j * sector.energies * tau)[:, None]
    u_even = _real_times(v_even, phased[:e] * v_even.T)
    u_odd = _real_times(v_odd, phased[e:] * v_odd.T)
    u_even *= kick[:e]
    u_odd *= kick[e:]
    c_even, c_odd = ferro[:e], ferro[e:]
    rows = np.empty((n_kicks, 3))
    for first in range(0, n_kicks, _TIME_BLOCK):
        count = min(_TIME_BLOCK, n_kicks - first)
        block = np.empty((len(ferro), count), dtype=complex)
        for i in range(count):
            c_even, c_odd = u_even @ c_even, u_odd @ c_odd
            norm = math.sqrt(np.vdot(c_even, c_even).real + np.vdot(c_odd, c_odd).real)
            c_even /= norm
            c_odd /= norm
            block[:e, i], block[e:, i] = c_even, c_odd
        rows[first:first + count] = _measure(sector, block)
    return rows
