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
accepted pair entries.  Pair k is accepted when ``|alpha_k| = |u_k|``
exceeds ``PAIR_RTOL``, and this is decided once, before any row is
formed.  It is threshold pivoting, a pivot chosen by magnitude: a cross
entry of the pair's rows is ``a kappa b`` with
``|kappa| <= 1 / (N sin(pi / 2N)) <= 0.66`` and, in a normalized state,
``|a|, |b| <= 1``, so the largest entry of the two rows is the first row's
border entry, of magnitude 1.  Each of the pair's two rank-one terms then
changes an entry by less than 1 / ``PAIR_RTOL``, so one pair grows the
matrix by at most a factor 1 + 2 / ``PAIR_RTOL``, and the pairs' bounds
add rather than compound.  A pair with u = 0 (or a NaN u) fails the test,
so it is never divided by; at v = 0 its second row holds only
``alpha_k``, and it adds nothing.  The kernel's ``PIVOT_RTOL`` test
compares against the entries of S, and Pf(M) = 0 exactly when Pf(S) = 0.

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

The per-sample cost.  Everything that depends on N alone is a table of
the state's :class:`isingring.model.MomentumGrid`; a sample forms only
what depends on its amplitudes.  S, antisymmetric by construction,
reaches the Pfaffian through
:meth:`isingring.pfaffian.SkewMatrix.antisymmetric`, without a scan.

Each BCS mode factor enters division-free through the identity
``eta^dag_k c^dag_{-k} |vac> = (u + v c^dag_k c^dag_{-k}) |vac>``, which
stays regular when a mode passes through v = 0 (as happens under kicks).

Batches.  The samples of a series share their grid and differ only in
their amplitudes, and at small N each stage of a sample costs its few
dozen numpy calls rather than their arithmetic.  So :func:`run_series`
evolves each sample with one ``evolve_*`` call and then evaluates
``<c_1>`` of a batch of samples at once (:func:`_c1_stacks`,
:func:`_c1_values`).  The batch's states are ordered by their count of
accepted bra pairs, and each run of equal counts, operands of one
dimension N + 1 + 2f, is one group, without padding: one (B, dim, dim)
stack, assembled with the kappa cross block gathered once and eliminated
by one :func:`isingring.wick.vacuum_expectation` call.  The pair product
``z 2^e`` and the power-of-two fold stay each state's own, and every
value is bit for bit the one the state has alone.  A group of one state
is assembled and eliminated as one matrix, without the stack's leading
axis, so a series of one sample runs the steps of a single operand.
Each sample is then made by one ``magnetization(state, c1)`` call.  A
batch holds at most B samples with ``B (N + 1)^2`` complex entries
within ``_BATCH_BYTES`` (2 MiB): 21 samples share a batch up to N = 78,
12 do at N = 100 and 3 at N = 200, and from N = 256 on each sample is a
batch of its own.  With ``threads`` > 1 a batch is at most ``1/threads``
of the schedule, and each worker evaluates a run of consecutive batches.

Memory.  Each worker of a series owns one
:class:`isingring.pfaffian.Workspace` for the ``run_series`` call, and
takes every (dim x dim)-sized array of a batch in it, so the samples of a
series reuse one block of memory instead of faulting a new one in for
each sample.  The pivot test fixes the operand dimensions before any of
them is taken, so :func:`_c1_entries` reserves the workspace first, for
exactly what the batch takes.  :func:`expectation_c1` and
:func:`magnetization` alone use a workspace of their own.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import compress, groupby

import numpy as np

from .dynamics import DriverSpec, SystemState, _kick_count, evolve_kick_step, evolve_quench, init_ferro
from .model import MomentumGrid, _complex, _integer, _reals
from .pfaffian import SkewMatrix, Workspace, working_entries
from .wick import contractions, vacuum_expectation

__all__ = ["MagnetizationSample", "expectation_c1", "magnetization", "run_series"]

# Signs scaling, in order: the k = 0 coefficient of c_1 on the odd grid, its
# other odd-grid coefficients, and the whole of c_1 on the even grid.
# Frozen by requiring expectation_c1(init_ferro) = +1/2 and
# regression-tested against exact diagonalization on both drivers.  Mutable
# only as a fault-injection hook for the validation suite's negative control.
_TERM_SIGNS = (1.0, 1.0, 1.0)

#: a bra pair is eliminated in the Schur complement only if its entry's magnitude |u_k| exceeds
#: this, a fraction of its rows' largest entry, 1 (threshold pivoting; see the module docstring)
PAIR_RTOL = 0.01

#: run_series evaluates its samples in batches of B, with B (N + 1)^2 complex entries
#: (16 bytes each) at most this many bytes, and at least one sample: 2 MiB, B = 12 at
#: N = 100 and 3 at N = 200, was faster per sample than 4 MiB at both
_BATCH_BYTES = 1 << 21


@dataclass(frozen=True)
class MagnetizationSample:
    """Site-summed magnetizations at one instant (or kick count)."""

    time: float
    mx: float
    my: float
    mz: float


def _pair_product(alpha):
    """``prod(alpha)`` as ``(z, e)``, ``prod(alpha) = z 2^e`` with ``1/2 <= |z| < 1``.

    ``alpha`` is an iterable of Python complex numbers.  After each factor
    the running product is divided by its own power of two (``frexp``,
    then an exact ``ldexp``) and the power is added to the integer ``e``,
    so no partial product leaves the double range.
    """
    z, e = 1.0 + 0.0j, 0
    for x in alpha:
        z *= x
        shift = math.frexp(abs(z))[1]
        z, e = complex(math.ldexp(z.real, -shift), math.ldexp(z.imag, -shift)), e + shift
    return z, e


def _c1_entries(n: int, counts) -> int:
    """The workspace entries of one ``<c_1>`` evaluation of states with ``counts`` accepted bra pairs each.

    The bra rows stay through the evaluation, and the operands above them;
    above both, the largest group's elimination
    (:func:`isingring.pfaffian.working_entries`), which holds more than the
    group's U.  The kappa gather, freed before the operands are taken,
    needs less than the operands and one elimination.
    """
    operands = work = 0
    for count in set(counts):
        size = counts.count(count)
        dim = 2 * (n // 2 - count) + n + 1
        operands += size * dim * dim
        work = max(work, working_entries(((size,) if size > 1 else ()) + (dim, dim), 2))
    return len(counts) * n * (n + 1) + operands + work


def _c1_stacks(states, workspace: Workspace) -> list:
    """The ``<c_1>`` operands S of states on one grid (see the module docstring), in stacks of equal dimension.

    The border columns are ``c_1`` on the odd grid (word 1) and ``c_1^dag``
    on the even grid (the adjoint of word 2), each without the ``N^{-1/2}``
    of ``c_1``.  Returns ``(members, skew)`` for each dimension that
    occurs, fewest rejected pairs first: the indices into ``states`` of the
    states with f rejected bra pairs, ascending, and their operands as one
    (B, dim, dim) array; a group of one state is its one (dim, dim) matrix.
    The operands stay in ``workspace``, above its ``top``, and the rest is
    freed again.
    """
    grid = states[0].grid
    n = grid.n_sites
    h = n // 2
    s1, s2, s3 = _TERM_SIGNS
    # the states' axis; one state is assembled without it, as the matrix it is
    lead = (len(states),) if len(states) > 1 else ()
    u, v = (np.array([getattr(s, name) for s in states]) if lead else getattr(states[0], name) for name in "uv")
    # the pivot test, once per bra pair; a NaN fails it and stays in the operand
    accepted = np.abs(u[..., :h]) > PAIR_RTOL
    counts = accepted.reshape(-1, h).sum(axis=1).tolist()
    # the states in runs of equal counts, most accepted pairs first, so that each group is a slice
    # (Python's stable sort: numpy's first argsort adds about 270 KB to the resident set)
    order = sorted(range(len(states)), key=counts.__getitem__, reverse=True)
    if lead:
        u, v, accepted = (x[order] for x in (u, v, accepted))
    counts.sort(reverse=True)
    workspace.reserve(_c1_entries(n, counts))
    # the parts that meet across sectors, at the grid's interleaved indices ann and cre: the
    # bra pairs' annihilated parts c_{-k} and conj(v) c_k, ascending in k, and the ket's
    # created parts v c^dag_k and c^dag_{-k}, then c^dag_0
    a = np.ones(lead + (n,), dtype=complex)
    np.conjugate(v[..., :h], out=a[..., 1::2])
    b = np.ones(lead + (n - 1,), dtype=complex)
    b[..., 0:-1:2] = v[..., h:]

    # the bra rows over the later columns: the ket and c^dag_0, word 1's border (which
    # meets only the ket and c^dag_0), word 2's border
    rows = workspace.take(lead + (n, n + 1))
    rows[..., n - 1] = 0.0
    contractions((grid.ann, grid.cre), (a, b), grid, rows[..., :n - 1], workspace)
    border = rows[..., n]
    np.multiply(grid.ann_phase, a, out=border)
    first = np.multiply(grid.cre_phase, b, out=b)

    # within a sector only the two factors of a BCS pair contract, with kappa = 1
    alpha = np.conj(u[..., :h])
    z, e = zip(*map(_pair_product, map(compress, alpha.reshape(-1, h).tolist(), accepted.reshape(-1, h).tolist())))
    # the term signs and z enter the border columns together; word 1's c_1 stands before the
    # later factors, so its column holds minus its contractions, and its last entry, at
    # c^dag_0 (phase and coefficient 1), takes the k = 0 sign
    z = np.array(z)[:, None] if lead else z[0]
    border *= s3 * z
    first *= -s2 * z
    first[..., -1:] = -s1 * z

    stacks, start = [], 0
    pair_rows = rows.reshape(lead + (h, 2, n + 1))
    for count, run in groupby(counts):
        stop = start + len(list(run))
        group = (stop - start,) if stop - start > 1 else ()
        pick = (slice(start, stop) if group else start,) if lead else ()
        group_rows, group_alpha, kept, group_first, pair_alpha = (
            x[pick] for x in (pair_rows, alpha, accepted, first, u[..., h:]))
        k = 2 * (h - count)
        dim = k + n + 1
        # S stays in the workspace; U, taken after it, is freed once S is formed
        skew = workspace.take(group + (dim, dim))
        mark = workspace.top
        # S = U - U^T: above the diagonal U holds the rejected pairs' rows in their order,
        # X = C2^T diag(1 / alpha) C1 over the pairs' rows C1 and C2, word 1's border and the
        # remaining pair entries
        upper = workspace.take(group + (dim, dim))
        c1, scaled = group_rows[..., 0, :], group_rows[..., 1, :]
        if k:
            failed = ~kept
            upper[..., :k] = 0
            upper[..., :k, k:] = group_rows[failed].reshape(group + (k, n + 1))
            pair_alpha = np.concatenate((group_alpha[failed].reshape(group + (k // 2,)), pair_alpha), axis=-1)
            # a rejected pair adds nothing to X: its C2 is zeroed, and divided by 1 instead of its alpha
            scaled[failed] = 0
            group_alpha = np.where(kept, group_alpha, 1.0)
        np.divide(scaled, group_alpha[..., None], out=scaled)
        np.matmul(scaled.swapaxes(-1, -2), c1, out=upper[..., k:, k:])
        upper[..., k:-2, -2] = group_first
        # the pair entries (i, i + 1), even i < dim - 3, a strided view of each flat matrix
        pairs = upper.reshape(group + (-1,))[..., 1:(dim - 3) * (dim + 1) + 1:2 * (dim + 1)]
        pairs += pair_alpha
        np.subtract(upper, upper.swapaxes(-1, -2), out=skew)
        workspace.top = mark

        # 2^e spread over the leading rows and either border: each even Pfaffian gains it exactly
        # (scaled in place through named views, which ``x[:r] *= 2`` would assign back)
        for member, i in zip(skew if group else [skew], range(start, stop)):
            q, r = divmod(e[i], dim - 1)
            if q:
                member *= math.ldexp(1.0, 2 * q)
            if r:
                top, left = member[:r], member[:, :r]
                top *= 2.0
                left *= 2.0
        stacks.append((order[start:stop], skew))
        start = stop
    return stacks


def _c1_from_words(state: SystemState, first: complex, second_adjoint: complex) -> complex:
    """``<psi(t)| c_1 |psi(t)>`` from the two bordered Pfaffians of the state's operand."""
    phase = cmath.exp(-1j * state.gamma)
    # the minus sign undoes moving c_1 (c_1^dag) past the N - 1 factors after it
    return -(phase * first + 1j * (phase * second_adjoint).conjugate()) / (2.0 * math.sqrt(state.grid.n_sites))


def _c1_values(states, workspace: Workspace) -> list:
    """``<psi(t)| c_1 |psi(t)>`` of each of the states, one Pfaffian elimination per operand dimension.

    A group of one is eliminated as the one matrix it is.  A range error
    of one state's Pfaffian carries that state's index in ``states`` as
    its ``member`` attribute.  Every (dim x dim)-sized array of the
    evaluation lives in ``workspace``, which it takes over whole: the
    arrays of an earlier evaluation in it are overwritten.
    """
    workspace.top = 0
    values = [None] * len(states)
    for members, skew in _c1_stacks(states, workspace):
        try:
            words = vacuum_expectation(SkewMatrix.antisymmetric(skew, border=2, workspace=workspace), border=2)
        except FloatingPointError as error:
            error.member = members[getattr(error, "member", 0)]
            raise
        for i, (first, second_adjoint) in zip(members, words if skew.ndim == 3 else [words]):
            values[i] = _c1_from_words(states[i], first, second_adjoint)
    return values


def expectation_c1(state: SystemState) -> complex:
    """Cross-parity matrix element ``<psi(t)| c_1 |psi(t)>``."""
    return _c1_values([state], Workspace())[0]


def magnetization(state: SystemState, c1: complex | None = None) -> MagnetizationSample:
    """Site-summed (mx, my, mz) of the current state.

    mx and my come from the cross-parity ``<c_1>`` (with
    ``<c_1^dag> = conj <c_1>``); mz is diagonal in the BCS amplitudes.
    ``c1`` is the state's ``<c_1>`` when it is known, as
    :func:`run_series` knows it from a batch; by default it is evaluated.
    """
    c1 = expectation_c1(state) if c1 is None else _complex(c1, "c1")
    n, h = state.grid.n_sites, len(state.grid.plus)
    # one sum per sector, which a sum over both would round differently; plain slices of u and v,
    # since a read-only sector view costs about 0.6 us
    (up, um), (vp, vm) = (state.u[:h], state.u[h:]), (state.v[:h], state.v[h:])
    mz = (np.vdot(vp, vp) - np.vdot(up, up) + np.vdot(vm, vm) - np.vdot(um, um)).real
    return MagnetizationSample(time=state.time, mx=2.0 * n * c1.real, my=-2.0 * n * c1.imag, mz=float(mz))


def run_series(driver: DriverSpec, grid: MomentumGrid, schedule, threads: int = 1):
    """Magnetization samples along a driver schedule, in schedule order.

    For a quench the schedule lists sample times, for kicks it lists kick
    counts, and kick samples are stroboscopic, taken just after the n-th
    kick.  Every sample is one closed-form propagation from the initial
    state (a Floquet power for kicks), so its value does not depend on the
    other schedule entries, and it is labelled by its own entry.

    The samples are evaluated in batches of consecutive entries, in
    ``threads`` worker threads (see the module docstring), and each
    sample's value is bit for bit the one it has alone.  A range error of
    a sample's Pfaffian names its schedule entry.
    """
    threads = _integer(threads, "threads", lower=1)
    # every entry is checked before any work, as a real and, in a kick schedule, as a kick count
    schedule = list(schedule)
    reals = _reals(schedule, "schedule entry").tolist()
    schedule = [_kick_count(n, "kick schedule entry") for n in schedule] if driver.kind == "kick" else reals
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    base = init_ferro(grid)
    if driver.kind == "quench":
        if any(t < 0 for t in schedule):
            raise ValueError("quench sample times must be nonnegative")

        def evolve(t):
            return evolve_quench(base, driver.g_f, t)
    else:
        def evolve(n):
            return evolve_kick_step(base, driver.g, driver.tau, driver.epsilon, n)

    def evaluate(batches):
        # one worker's batches, one after the other in the worker's own workspace
        workspace, samples = Workspace(), []
        for entries in batches:
            states = [evolve(x) for x in entries]
            try:
                values = _c1_values(states, workspace)
            except FloatingPointError as error:
                if getattr(error, "member", None) is None:
                    raise
                raise FloatingPointError(f"schedule entry {entries[error.member]}: {error}") from error
            # one module-level magnetization call per sample
            samples += [magnetization(state, c1) for state, c1 in zip(states, values)]
        return samples

    size = max(1, min(_BATCH_BYTES // (16 * (grid.n_sites + 1) ** 2), -(-len(schedule) // threads)))
    batches = [schedule[i:i + size] for i in range(0, len(schedule), size)]
    if threads > 1:
        # imported here: a serial series should not pay for the module
        from concurrent.futures import ThreadPoolExecutor

        # each worker evaluates a run of consecutive batches
        share = max(1, -(-len(batches) // threads))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = pool.map(evaluate, [batches[i:i + share] for i in range(0, len(batches), share)])
            samples = [s for run in runs for s in run]
    else:
        samples = evaluate(batches)
    return [MagnetizationSample(float(x), s.mx, s.my, s.mz) for x, s in zip(schedule, samples)]
