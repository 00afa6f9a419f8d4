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
N = 10 and 352 at N = 12, against 2^N).  What of the sector depends on N
alone (the bond part of the Hamiltonian, the sigma^-_1 blocks, the ferro
state and the sigma^z totals) is one :func:`ring_sector`, which the
trajectories of one ring size share through their ``sector`` argument:
the validation suite builds one per ring size, and each trajectory adds
only its field's term and eigensolves.

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

__all__ = ["ground_parity", "quench_trajectory", "kick_trajectory", "ring_sector"]

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
    _energy_bound(n_sites, g, "g")
    sector = ring_sector(n_sites)
    energies, _ = _eigensystem(sector, g)
    even, odd = energies[:sector.even], energies[sector.even:]
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


def _sector_bonds(n_sites: int, col: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``P^T H P`` for the bond part ``H = -sum_j sigma^x_j sigma^x_{j+1}``, without forming H.

    H commutes with T, so column r of ``P^T H P`` follows from any one member
    s of orbit r: each bond flip of s that lands in orbit t stands for the
    same flip of all 1/weight[r]^2 states of the orbit, each entering with
    ``-weight[t] * weight[r]``, so it adds ``-weight[t] / weight[r]`` to
    entry (t, r).  The field's term is diagonal; :func:`_blocks` adds it.
    """
    r = col.max() + 1
    # one state of each orbit; which one the assignment keeps does not matter
    member = np.empty(r, dtype=int)
    member[col] = np.arange(2**n_sites)
    bonds = np.array([(1 << j) | (1 << ((j + 1) % n_sites)) for j in range(n_sites)])
    flipped = member ^ bonds[:, None]
    return np.bincount((col[flipped] * r + np.arange(r)).ravel(),
                       weights=(-weight[flipped] / weight[member]).ravel(), minlength=r * r).reshape(r, r)


class _RingSector(NamedTuple):
    """The zero-momentum sector of one ring size, all of it that does not depend on the field.

    Orbits ``[:even]`` have even parity and the rest odd.  Its arrays are
    read-only, so one sector serves every trajectory of its ring size.
    """

    n_sites: int
    even: int
    bonds: tuple  # the even and odd blocks of P^T H P at g = 0, the part of H that the field does not change
    z_total: np.ndarray  # sum of sigma^z_j over the sites, per orbit
    lower: tuple  # the blocks A_eo and A_oe of A = P^T sigma^-_1 P, which is zero within each block
    ferro: np.ndarray  # P^T of the +x ferro state


def ring_sector(n_sites: int) -> _RingSector:
    """The field-independent part of the ring's zero-momentum sector, for ``sector=`` of the trajectories.

    The bond part of the Hamiltonian, the sigma^-_1 blocks, the ferro
    state and the sigma^z totals depend on N alone, so the trajectories of
    one ring size can share them, and each only adds its field's
    ``-g sum_j sigma^z_j`` and eigensolves.
    """
    n_sites = _sites(n_sites)
    col, weight = _orbit_basis(n_sites)
    r = col.max() + 1
    # state 1, one up spin, is the smallest odd-parity state, so it opens the odd block
    e = int(col[1])
    z_total = np.empty(r)
    z_total[col] = 2.0 * _popcount(n_sites) - n_sites
    # sigma^-_1 takes each state s with site 1 up (s odd) to s - 1
    up = np.arange(1, 2**n_sites, 2)
    lower = np.bincount(col[up - 1] * r + col[up], weights=weight[up - 1] * weight[up],
                        minlength=r * r).reshape(r, r)
    a_eo, a_oe = lower[:e, e:].copy(), lower[e:, :e].copy()
    # every amplitude of the ferro state is 2^(-N/2)
    ferro = np.bincount(col, weights=weight) / 2.0 ** (n_sites / 2)
    h = _sector_bonds(n_sites, col, weight)
    bonds = h[:e, :e].copy(), h[e:, e:].copy()
    for table in (*bonds, z_total, a_eo, a_oe, ferro):
        table.flags.writeable = False
    return _RingSector(n_sites, e, bonds, z_total, (a_eo, a_oe), ferro)


def _with_sector(n_sites: int, sector) -> _RingSector:
    """``sector``, checked to be ``ring_sector(n_sites)``'s, or by default that sector, built here."""
    if sector is None:
        return ring_sector(n_sites)
    if not isinstance(sector, _RingSector) or sector.n_sites != n_sites:
        got = f"the sector of N = {sector.n_sites}" if isinstance(sector, _RingSector) else type(sector).__name__
        raise ValueError(f"sector must be ring_sector({n_sites}), got {got}")
    return sector


def _energy_bound(n_sites: int, g: float, name: str) -> float:
    """``N (|g| + 1)``, a bound on every energy of H at field g; above 2^1023 it raises ValueError naming ``name``."""
    bound = n_sites * (abs(g) + 1.0)
    if not bound <= model._PHASE_MAX:
        raise ValueError(f"{name} = {g!r} takes the energies of {n_sites} sites beyond 2^1023")
    return bound


def _blocks(sector: _RingSector, g: float) -> list:
    """The even and odd blocks of ``P^T H P`` at field g: the bond blocks plus ``-g sum_j sigma^z_j``, diagonal."""
    e, z = sector.even, sector.z_total
    return [bonds - np.diag(g * z_block) for bonds, z_block in zip(sector.bonds, (z[:e], z[e:]))]


def _eigensystem(sector: _RingSector, g: float):
    """The levels of the sector's even block at field g, then those of its odd block, and each block's eigenvectors."""
    (e_even, v_even), (e_odd, v_odd) = map(np.linalg.eigh, _blocks(sector, g))
    return np.concatenate([e_even, e_odd]), (v_even, v_odd)


def _measure(sector: _RingSector, c: np.ndarray) -> np.ndarray:
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


def quench_trajectory(n_sites: int, g_f: float, times, sector=None) -> np.ndarray:
    """Exact (mx, my, mz) samples after a quench from the +x ferro state.

    Runs in the two parity blocks of the zero-momentum sector, ``sector``
    if given (:func:`ring_sector` of ``n_sites``). All times of a block
    evolve together: per parity, their eigenbasis coefficients form an
    (R, T) matrix, mapped to the orbit basis by two real products with the
    block's real eigenvectors.
    """
    n_sites, g_f = _sites(n_sites), model._real(g_f, "g_f")
    times = model._reals(times, "times")
    # every phase E t is at most N (|g_f| + 1) |t|
    span = float(np.abs(times).max(initial=0.0))
    if not _energy_bound(n_sites, g_f, "g_f") * span <= model._PHASE_MAX:
        raise ValueError(f"a times entry of magnitude {span!r} takes the phases E t at g_f = {g_f!r} beyond 2^1023")
    sector = _with_sector(n_sites, sector)
    energies, (v_even, v_odd) = _eigensystem(sector, g_f)
    e, ferro = sector.even, sector.ferro
    start = np.concatenate([v_even.T @ ferro[:e], v_odd.T @ ferro[e:]])
    rows = np.empty((len(times), 3))
    for first in range(0, len(times), _TIME_BLOCK):
        block = times[first:first + _TIME_BLOCK]
        phased = np.exp(-1j * np.outer(energies, block)) * start[:, None]
        rows[first:first + len(block)] = _measure(
            sector, np.concatenate([_real_times(v_even, phased[:e]), _real_times(v_odd, phased[e:])]))
    return rows


def kick_trajectory(n_sites: int, g: float, tau: float, epsilon: float, n_kicks: int,
                    sector=None) -> np.ndarray:
    """Exact stroboscopic (mx, my, mz) just after each of the first n kicks.

    Runs in the two parity blocks of the zero-momentum sector, ``sector``
    if given (:func:`ring_sector` of ``n_sites``), where the kick is
    diagonal: the popcount is the same for every state of an orbit. Each
    block advances by one precomputed period, the evolution over tau
    followed by the kick, and the state is renormalized after every kick.
    """
    n_sites = _sites(n_sites)
    g, tau, epsilon = (model._real(x, name) for x, name in ((g, "g"), (tau, "tau"), (epsilon, "epsilon")))
    n_kicks = model._integer(n_kicks, "n_kicks", lower=0)
    # the phases E tau are at most N (|g| + 1) |tau|, and the kick's (phi/2) sigma^z totals N |phi| / 2
    if not _energy_bound(n_sites, g, "g") * abs(tau) <= model._PHASE_MAX:
        raise ValueError(f"tau = {tau!r} takes the phases E tau at g = {g!r} beyond 2^1023")
    half_phi = np.pi * (1.0 - epsilon) / 2.0
    if not n_sites * abs(half_phi) <= model._PHASE_MAX:
        raise ValueError(f"epsilon = {epsilon!r} takes the kick phases of {n_sites} sites beyond 2^1023")
    sector = _with_sector(n_sites, sector)
    energies, (v_even, v_odd) = _eigensystem(sector, g)
    e, ferro = sector.even, sector.ferro
    # e^{-i (phi/2) sum_j sigma^z_j} after e^{-i H tau}, with phi = pi (1 - epsilon)
    kick = np.exp(-1j * half_phi * sector.z_total)[:, None]
    phased = np.exp(-1j * energies * tau)[:, None]
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
