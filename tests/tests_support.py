"""Shared helpers for tests: the full 2^N spin-basis states and Hamiltonian
(ferro, cat and momentum-space sub-ground states, in which the paper's
correspondence between momentum space and real space is checked), and the
reference oracles (the unblocked Pfaffian, dense coefficient-array words
and their dense contraction kernel, the dense two-word ``<c_1>`` fill, the
full bordered ``<c_1>`` matrix and its word fills, dict-operator BCS
words, the per-word ``<c_1>``, the scalar contraction kernel, the explicit
overlap formula, the per-mode propagator and mode Hamiltonians, full-space
evolution, kicks, measurement, ground-state parity, the dense
zero-momentum isometry, and the parity gap as the chord sum in mpmath).  A
reference operator is a pair ``(ann, cre)`` of dicts
``{ModeIndex: coefficient}``.  :class:`ModeIndex`, a mode named by sector
and grid index, lives here because only these oracles use it; the engine
names a mode by its grid index alone (see
:class:`isingring.model.MomentumGrid`)."""

from dataclasses import dataclass

import numpy as np

from isingring import model, observables
from isingring.model import MomentumGrid, mode_coefficients
from isingring.oracle_ed import MAX_SITES, _popcount, _sites
from isingring.pfaffian import PIVOT_RTOL, SkewMatrix, Workspace, pfaffian
from isingring.wick import contractions, vacuum_expectation


@dataclass(frozen=True)
class DenseState:
    """Normalized state vector in the full 2^N spin basis."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_sites", model._integer(self.n_sites, "n_sites"))
        if self.n_sites > MAX_SITES:
            raise ValueError(f"dense oracle limited to N <= {MAX_SITES}")
        if self.amplitudes.shape != (2**self.n_sites,):
            raise ValueError("amplitude vector has wrong length")
        norm = np.linalg.norm(self.amplitudes)
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state not normalized: |psi| = {norm}")


def build_hamiltonian(n_sites: int, g: float) -> np.ndarray:
    """Dense 2^N x 2^N matrix of the periodic transverse-field Ising chain."""
    n_sites, g = _sites(n_sites), model._real(g, "g")
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


def _apply_cdag(psi: np.ndarray, n_sites: int, site: int) -> np.ndarray:
    """Real-space fermion creation ``c^dag_site`` via the Jordan-Wigner map.

    The string runs over sites 1..site-1 and sigma^z = 2 c^dag c - 1, so
    spin-down is the fermion vacuum.
    """
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
    n_sites, g = _sites(n_sites), model._real(g, "g")
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
    n_sites = _sites(n_sites)
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


#: sector labels: EVEN carries the half-integer grid, ODD the integer grid
EVEN, ODD = +1, -1


@dataclass(frozen=True)
class ModeIndex:
    """A momentum mode identified by sector and integer grid index.

    The physical momentum is ``pi * index / n_sites``.  Even-sector momenta
    have odd ``index`` (half-integer grid, excludes 0 and -pi); odd-sector
    momenta have even ``index`` (integer grid, includes -pi and 0).  Storing
    the integer index keeps set membership and k -> -k exact.
    """

    sector: int
    index: int
    n_sites: int

    def __post_init__(self):
        n = self.n_sites
        if n < 4 or n % 2 != 0:
            raise ValueError(f"n_sites must be even and >= 4, got {n}")
        if self.sector not in (EVEN, ODD):
            raise ValueError(f"sector must be +1 or -1, got {self.sector}")
        if not -n <= self.index < n:
            raise ValueError(f"index {self.index} out of range for N={n}")
        if self.sector == EVEN and self.index % 2 == 0:
            raise ValueError(f"even-sector index must be odd, got {self.index}")
        if self.sector == ODD and self.index % 2 != 0:
            raise ValueError(f"odd-sector index must be even, got {self.index}")

    @property
    def momentum(self) -> float:
        return np.pi * self.index / self.n_sites

    def negate(self) -> "ModeIndex":
        """The mode at momentum -k (k = -pi is self-conjugate)."""
        m = -self.index if self.index != -self.n_sites else self.index
        return ModeIndex(self.sector, m, self.n_sites)


def plus_modes(grid):
    """The positive even-sector modes of ``grid`` as :class:`ModeIndex`, ascending."""
    return [ModeIndex(EVEN, int(m), grid.n_sites) for m in grid.plus]


def minus_modes(grid):
    """The positive odd-sector normal modes of ``grid`` as :class:`ModeIndex`, ascending."""
    return [ModeIndex(ODD, int(m), grid.n_sites) for m in grid.minus]


def pfaffian_reference(a) -> complex:
    """Unblocked Parlett-Reid Pfaffian: each step's rank-2 update applied at once.

    The same pivoting and ``PIVOT_RTOL`` zero short-circuit as
    :func:`isingring.pfaffian.pfaffian`, with two ``np.outer`` updates of
    the whole trailing block per step; the reference for the blocked kernel.
    """
    if not isinstance(a, SkewMatrix):
        a = SkewMatrix(a)
    m = a.entries.copy()
    n = a.dim
    scale = float(np.abs(m).max())
    if scale == 0.0:
        return 0.0 + 0.0j
    threshold = PIVOT_RTOL * scale

    pf = 1.0 + 0.0j
    for k in range(0, n - 2, 2):
        # largest pivot in column k below the diagonal
        col = np.abs(m[k + 1:, k])
        rel = int(np.argmax(col))
        if col[rel] < threshold:
            return 0.0 + 0.0j
        piv = k + 1 + rel
        if piv != k + 1:
            m[[k + 1, piv], :] = m[[piv, k + 1], :]
            m[:, [k + 1, piv]] = m[:, [piv, k + 1]]
            pf = -pf
        pf *= m[k, k + 1]
        # rank-2 update of the trailing block
        tau = m[k, k + 2:] / m[k, k + 1]
        w = m[k + 2:, k + 1]
        m[k + 2:, k + 2:] += np.outer(tau, w) - np.outer(w, tau)
    pf *= m[n - 2, n - 1]
    return complex(pf)


def mode_slot(index, n_sites: int):
    """Column of the mode with integer grid index ``index`` (scalar or array) in the 2N-mode basis.

    The sector follows from the index parity (odd: even sector, even: odd
    sector), so ``(m + N)//2 + N [odd sector]`` puts the even-sector modes
    in columns 0..N-1 and the odd-sector modes, -pi first, in N..2N-1, each
    in ascending momentum.  Every dense word row and :func:`dense_kernel`
    use this order.
    """
    index = np.asarray(index)
    return (index + n_sites) // 2 + n_sites * (index % 2 == 0)


@dataclass(frozen=True, eq=False)
class FermionWord:
    """An ordered product of L linear forms in the 2N mode operators.

    Row i of ``ann`` holds the coefficients of the annihilators in factor i,
    row i of ``cre`` those of the creators, both (L, 2N) in
    :func:`mode_slot` order.  The dense reference for the engine's
    one-mode-factor words.
    """

    ann: np.ndarray
    cre: np.ndarray

    def __len__(self):
        return len(self.ann)

    def __add__(self, other: "FermionWord") -> "FermionWord":
        """The product ``self other``: rows concatenated."""
        return FermionWord(np.vstack([self.ann, other.ann]), np.vstack([self.cre, other.cre]))

    def dagger(self) -> "FermionWord":
        """The adjoint product: rows reversed, coefficients conjugated, ann and cre swapped."""
        return FermionWord(self.cre[::-1].conj(), self.ann[::-1].conj())


def dense_kernel(n_sites: int) -> np.ndarray:
    """Contractions ``<vac| c_a c^dag_b |vac>`` over the full 2N-mode basis in slot order.

    Each cross-sector entry is formed from the exact integer index
    difference of its two modes.
    """
    n = n_sites
    index = np.empty(2 * n, dtype=int)
    index[mode_slot(np.arange(-n, n), n)] = np.arange(-n, n)
    d = index[:, None] - index[None, :]
    kernel = np.eye(2 * n, dtype=complex)
    cross = d % 2 != 0
    kernel[cross] = (2.0 / n) / (np.exp(1j * np.pi * d[cross] / n) - 1.0)
    return kernel


def dense_contractions(word: FermionWord) -> np.ndarray:
    """The L x L contraction matrix ``ann K cre^T`` of a dense word."""
    return word.ann @ dense_kernel(word.ann.shape[1] // 2) @ word.cre.T


def dense_skew(word: FermionWord) -> np.ndarray:
    """The antisymmetric matrix with the upper triangle of :func:`dense_contractions`."""
    upper = np.triu(dense_contractions(word), 1)
    return upper - upper.T


def dense_expectation(word: FermionWord) -> complex:
    """Vacuum expectation of a dense word through its dense contraction matrix."""
    return vacuum_expectation(dense_skew(word))


def _fill_ket_dense(ann, cre, n_sites, index, u, v):
    """Write ``|X>``, the factor pairs ``(eta^dag_k, c^dag_{-k})`` of the positive grid indices, into dense rows."""
    rows = np.arange(0, 2 * len(index), 2)
    pos, neg = mode_slot(index, n_sites), mode_slot(-index, n_sites)
    ann[rows, neg] = u
    cre[rows, pos] = v
    cre[rows + 1, neg] = 1.0


def _fill_bra_dense(ann, cre, n_sites, index, u, v):
    """Write ``<X|``, the adjoint of ``|X>``: rows reversed, coefficients conjugated, ann and cre swapped."""
    _fill_ket_dense(cre[::-1], ann[::-1], n_sites, index, np.conj(u), np.conj(v))


def c1_words_dense(state):
    """The engine's two ``<c_1>`` words as dense ``[(coefficient, FermionWord), ...]``.

    The words whose shared factors and ``c_1`` factors
    ``c1_bordered`` assembles as one bordered matrix, under the
    current ``observables._TERM_SIGNS``, with ``c_1`` as one dense
    annihilator row:

        word 1: <psi_e| (N rows), c_1 on the odd grid, |psi_o> (N - 2 rows), c^dag_0
        word 2: c_0, <psi_o| (N - 2 rows), c_1 on the even grid, |psi_e> (N rows)
    """
    n = state.grid.n_sites
    s1, s2, s3 = observables._TERM_SIGNS
    even, odd = np.arange(1 - n, n, 2), np.arange(-n, n, 2)
    even_pos, odd_pos = even[even > 0], odd[odd > 0]
    zero = mode_slot(0, n)
    ann = np.zeros((2, 2 * n, 2 * n), dtype=complex)
    cre = np.zeros_like(ann)

    _fill_bra_dense(ann[0, :n], cre[0, :n], n, even_pos, state.u_plus, state.v_plus)
    ann[0, n, mode_slot(odd, n)] = np.where(odd == 0, s1, s2) * np.exp(1j * np.pi * odd / n)
    _fill_ket_dense(ann[0, n + 1:], cre[0, n + 1:], n, odd_pos, state.u_minus, state.v_minus)
    cre[0, -1, zero] = 1.0

    ann[1, 0, zero] = 1.0
    _fill_bra_dense(ann[1, 1:n - 1], cre[1, 1:n - 1], n, odd_pos, state.u_minus, state.v_minus)
    ann[1, n - 1, mode_slot(even, n)] = s3 * np.exp(1j * np.pi * even / n)
    _fill_ket_dense(ann[1, n:], cre[1, n:], n, even_pos, state.u_plus, state.v_plus)

    phase = np.exp(-1j * state.gamma)
    pref12 = phase / (2.0 * np.sqrt(n))
    pref3 = 1j * np.conj(phase) / (2.0 * np.sqrt(n))
    return [(pref12, FermionWord(ann[0], cre[0])), (pref3, FermionWord(ann[1], cre[1]))]


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


def c1_bordered(state) -> SkewMatrix:
    """The engine's ``<c_1>`` operand of one state, as one bordered matrix with its pivots.

    The one member of the stack that ``observables._c1_stacks`` builds for
    the state alone: both words' Schur complement on the bra pairs with
    ``|u_k| > PAIR_RTOL``, of dimension N + 1 + 2f for f rejected pairs,
    with two border columns, and the pairs' ``alpha_k`` (1 for a rejected
    pair) as the pivots eliminated before it.
    """
    ((_, (skew,), (pivots,)),) = observables._c1_stacks([state], Workspace())
    return SkewMatrix.antisymmetric(skew, border=2, pivots=pivots)


def c1_bordered_reference(state) -> SkewMatrix:
    """The full (2N + 1) x (2N + 1) bordered contraction matrix of both ``<c_1>`` words.

    The leading block holds the 2N - 1 shared factors

        <psi_e| (N factors), |psi_o> (N - 2 factors), c^dag_0

    and the two border columns their contractions with ``c_1`` on the odd
    grid (word 1) and with ``c_1^dag`` on the even grid (the adjoint of
    word 2), under the current ``observables._TERM_SIGNS``.  Its bordered
    Pfaffians are those of ``c1_bordered(state)``, which
    eliminates the accepted bra pairs of this matrix in one Schur complement.
    It is filled from the words' factors, the bra in the adjoint's order
    (pairs in descending k), and shares no assembly code with the engine.
    """
    grid = state.grid
    n = grid.n_sites
    s1, s2, s3 = observables._TERM_SIGNS
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
    cross = contractions((ann[:n], cre[n:]), (a[:n], b[n:]), grid)
    # word 1's c_1 stands before the later factors, so its column holds minus its contractions
    first = -np.where(cre[n:] == 0, s1, s2) * np.exp(1j * np.pi * cre[n:] / n) * b[n:]
    second = s3 * np.exp(-1j * np.pi * ann[:n] / n) * a[:n]

    skew = np.zeros((shared + 2, shared + 2), dtype=complex)
    skew[rows, rows + 1] = pairs
    skew[:n, n:shared] = cross
    skew[n:shared, shared] = first
    skew[:n, shared + 1] = second
    return SkewMatrix(skew - skew.T, border=2)


def pair_rows_pivot_reference(state):
    """Threshold pivoting on the bra pairs' rows of ``c1_bordered_reference(state)``, ascending in k.

    Returns ``(accepted, largest)``: whether ``|alpha_k|`` exceeds
    ``observables.PAIR_RTOL`` times the largest entry magnitude of the
    pair's two rows, ``alpha_k`` included, and that largest magnitude.
    This is the row-magnitude rule that the engine decides from
    ``|u_k|`` alone.
    """
    n = state.grid.n_sites
    full = c1_bordered_reference(state).entries
    # the bra lists its pairs in descending k
    rows = np.abs(full[:n]).reshape(n // 2, 2, -1)[::-1]
    alpha = rows[:, 0, :n].max(axis=1)
    largest = rows.max(axis=(1, 2))
    return alpha > observables.PAIR_RTOL * largest, largest


def bcs_amplitudes(rng, count, min_v=0.0):
    """Random normalized (u, v) pairs with |v| bounded away from zero."""
    pairs = []
    while len(pairs) < count:
        z = rng.standard_normal(4)
        u = z[0] + 1j * z[1]
        v = z[2] + 1j * z[3]
        norm = np.sqrt(abs(u) ** 2 + abs(v) ** 2)
        u, v = u / norm, v / norm
        if abs(v) > min_v:
            pairs.append((u, v))
    return pairs


def as_word(ops, n_sites=None):
    """The array word whose row i is the reference operator ``ops[i]``.

    ``n_sites`` is needed only when no operator names a mode.
    """
    n = n_sites or next(k.n_sites for op in ops for coeffs in op for k in coeffs)
    ann = np.zeros((len(ops), 2 * n), dtype=complex)
    cre = np.zeros_like(ann)
    for row, op in enumerate(ops):
        for mat, coeffs in zip((ann, cre), op):
            for k, c in coeffs.items():
                mat[row, mode_slot(k.index, n)] += c
    return FermionWord(ann, cre)


def bra_word(pairs):
    """Bra-side operator list for a product of BCS mode factors."""
    ops = []
    for mode, u, v in reversed(pairs):
        neg = mode.negate()
        ops += [({neg: 1.0}, {}), ({mode: np.conj(v)}, {neg: np.conj(u)})]
    return ops


def ket_word(pairs):
    """Ket-side operator list for a product of BCS mode factors."""
    ops = []
    for mode, u, v in pairs:
        neg = mode.negate()
        ops += [({neg: u}, {mode: v}), ({}, {neg: 1.0})]
    return ops


def _broken_pair_op(mode):
    """The unpaired remainder ``e^{ik} c^dag_{-k} - e^{-ik} c^dag_k``."""
    k = mode.momentum
    return {}, {mode.negate(): np.exp(1j * k), mode: -np.exp(-1j * k)}


def c1_terms_reference(state):
    """``<c_1>`` split into three terms, each a list of ``(coefficient, word)``.

    The per-word reference path: term 1 is the overlap of the even bra with
    the odd normal modes (``c_0`` having annihilated ``c^dag_0``); terms 2
    and 3 each hold one word per pair that a Fourier component of ``c_1``
    breaks, in the odd and the even ket.  ``sum(s_i * total_i)`` with the
    three signs of ``observables._TERM_SIGNS`` reproduces
    ``expectation_c1`` under the same signs, using N words instead of two.
    """
    grid = state.grid
    n = grid.n_sites
    plus = list(zip(plus_modes(grid), state.u_plus, state.v_plus))
    minus = list(zip(minus_modes(grid), state.u_minus, state.v_minus))
    zero_mode = ModeIndex(ODD, 0, n)
    bra_even = bra_word(plus)
    bra_odd = bra_word(minus) + [({zero_mode: 1.0}, {})]

    phase = np.exp(-1j * state.gamma)
    pref12 = phase / (2.0 * np.sqrt(n))
    pref3 = 1j * np.conj(phase) / (2.0 * np.sqrt(n))

    term1 = [(pref12, as_word(bra_even + ket_word(minus)))]
    term2 = [
        (pref12 * v, as_word(
            bra_even + [_broken_pair_op(mode), ({}, {zero_mode: 1.0})]
            + ket_word(minus[:i] + minus[i + 1:])
        ))
        for i, (mode, _, v) in enumerate(minus)
    ]
    term3 = [
        (pref3 * v, as_word(
            bra_odd + [_broken_pair_op(mode)] + ket_word(plus[:i] + plus[i + 1:])
        ))
        for i, (mode, _, v) in enumerate(plus)
    ]
    return term1, term2, term3


def expectation_c1_reference(state, signs=(1.0, 1.0, 1.0)):
    """Sign-weighted sum of the three reference terms."""
    return sum(
        s * sum(coeff * dense_expectation(word) for coeff, word in term)
        for s, term in zip(signs, c1_terms_reference(state))
    )


def contraction_kernel(k, kp) -> complex:
    """Vacuum contraction ``<vac| c_k c^dag_kp |vac>``.

    Kronecker delta for equal sectors; the cross-sector kernel otherwise.
    Sectors differing guarantees k != kp, so the denominator never vanishes.
    """
    if k.n_sites != kp.n_sites:
        raise ValueError("modes belong to different ring sizes")
    if k.sector == kp.sector:
        return 1.0 + 0.0j if k.index == kp.index else 0.0 + 0.0j
    n = k.n_sites
    return (2.0 / n) / (np.exp(1j * (k.momentum - kp.momentum)) - 1.0)


def inner_product_Imn(bra_modes, ket_modes) -> complex:
    """Cross-sector BCS inner product from the explicit Pfaffian formula.

    Both arguments are sequences of ``(mode, u, v)`` triples: the bra modes
    in one sector, the ket modes in the other, all at positive momentum.
    Returns ``(-1)^m / (prod conj(v_p) * prod v_k) * Pf(A)`` with the
    2(m+n) x 2(m+n) contraction matrix assembled from the six closed-form
    Bogoliubov contractions.

    This path divides by the ``v`` amplitudes; it is the validation oracle
    for the division-free word of ``bra_word + ket_word``.
    """
    m, n = len(bra_modes), len(ket_modes)
    if m == 0 and n == 0:
        return 1.0 + 0.0j
    for _, _, v in list(bra_modes) + list(ket_modes):
        if abs(v) < 1e-12:
            raise ValueError("|v| < 1e-12: use dense_expectation on the division-free word")
    if any(mode.index <= 0 for mode, _, _ in list(bra_modes) + list(ket_modes)):
        raise ValueError("bra and ket momenta must be positive")
    sectors_bra = {mode.sector for mode, _, _ in bra_modes}
    sectors_ket = {mode.sector for mode, _, _ in ket_modes}
    if len(sectors_bra) > 1 or len(sectors_ket) > 1 or (sectors_bra and sectors_bra == sectors_ket):
        raise ValueError("bra and ket modes must lie in opposite single sectors")

    dim = 2 * (m + n)
    a = np.zeros((dim, dim), dtype=complex)
    for l, (p, up, vp) in enumerate(bra_modes):
        a[2 * l, 2 * l + 1] = -np.conj(up) * np.conj(vp)
        for j, (k, uk, vk) in enumerate(ket_modes):
            w = np.conj(vp) * vk
            a[2 * l, 2 * m + 2 * j] = w * contraction_kernel(p.negate(), k.negate())
            a[2 * l, 2 * m + 2 * j + 1] = -w * contraction_kernel(p.negate(), k)
            a[2 * l + 1, 2 * m + 2 * j] = -w * contraction_kernel(p, k.negate())
            a[2 * l + 1, 2 * m + 2 * j + 1] = w * contraction_kernel(p, k)
    for j, (k, uk, vk) in enumerate(ket_modes):
        a[2 * m + 2 * j, 2 * m + 2 * j + 1] = uk * vk
    a = a - a.T

    prefactor = (-1.0) ** m
    for _, up, vp in bra_modes:
        prefactor /= np.conj(vp)
    for _, uk, vk in ket_modes:
        prefactor /= vk
    return prefactor * pfaffian(a)


def mode_hamiltonian_even(k: float, g: float) -> np.ndarray:
    """Mode Hamiltonian in the even basis ``{|vac>, c^dag_k c^dag_-k |vac>}``."""
    a, b = mode_coefficients(k, g)
    return np.array([[a, b], [b, -a]], dtype=complex)


def special_mode_energies(g: float):
    """Diagonal entries of the two special-mode Hamiltonians.

    Returned as ``(h1_pi, h2_pi, h1_0, h2_0)`` in the bases
    ``{|vac>_{-pi}, |-pi>}`` and ``{|vac>_0, |0>}``.
    """
    return (-2.0 * (1.0 - g), 2.0 * (1.0 - g), 2.0 * (1.0 + g), -2.0 * (1.0 + g))


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


def stepped_reference(state, g, t, phi=None, steps=1):
    """Amplitudes ``(u_plus, v_plus, u_minus, v_minus)`` after ``steps`` single steps.

    Each mode's one-step propagator is ``mode_unitary(H_k, t)``, followed by
    the kick ``diag(e^{i phi}, e^{-i phi})`` when ``phi`` is given; it is
    built once per mode and applied ``steps`` times, as the per-mode,
    per-kick path that the closed-form drivers replace did.
    """
    def sector(modes, u, v):
        props = []
        for mode in modes:
            prop = mode_unitary(mode_hamiltonian_even(mode.momentum, g), t)
            if phi is not None:
                prop = np.diag([np.exp(1j * phi), np.exp(-1j * phi)]) @ prop
            props.append(prop)
        props = np.array(props).reshape(-1, 2, 2)
        uv = np.array([u, v])
        for _ in range(steps):
            uv = np.einsum("mij,jm->im", props, uv)
        return uv[0], uv[1]

    grid = state.grid
    return (*sector(plus_modes(grid), state.u_plus, state.v_plus),
            *sector(minus_modes(grid), state.u_minus, state.v_minus))


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


def isometry(col, weight):
    """The dense 2^N x R matrix P of an orbit basis ``(col, weight)``."""
    p = np.zeros((len(col), col.max() + 1))
    p[np.arange(len(col)), col] = weight
    return p


def _parity_diag(n_sites: int) -> np.ndarray:
    """Fermion parity of each basis state: +1 for even occupation."""
    return np.where(_popcount(n_sites) % 2 == 0, 1.0, -1.0)


def ground_parity_full_space(n_sites: int, g: float) -> str:
    """Fermion parity of the nondegenerate ground state, 'even' or 'odd'.

    The reference for :func:`isingring.oracle_ed.ground_parity`, which
    diagonalizes in the zero-momentum sector.  The full 2^N x 2^N
    Hamiltonian conserves the fermion parity, so it is split by the parity
    of each basis state into two blocks, whose eigenvalues together are its
    spectrum; ``eigvalsh`` of each block gives its lowest levels.  The
    ground space is degenerate when the two lowest levels of the whole
    spectrum are within 1e-10, and the ground state otherwise has the
    parity of the block that holds the lowest level.
    """
    n_sites = _sites(n_sites)
    h = build_hamiltonian(n_sites, g)
    even = _parity_diag(n_sites) > 0
    levels = sorted((energy, parity) for parity, block in (("even", even), ("odd", ~even))
                    for energy in np.linalg.eigvalsh(h[np.ix_(block, block)])[:2])
    if levels[1][0] - levels[0][0] < 1e-10:
        raise ValueError("ground space is degenerate; use the cat-state basis")
    return levels[0][1]


def _gap_precise(x: float, n_sites: int) -> float:
    """Parity gap via the alternating chord sum in arbitrary precision.

    The gap scales roughly like x^N for x < 1, far below the double-precision
    cancellation floor of the O(N) energy sums, so the alternating sum minus
    one is evaluated with enough digits to resolve it before rounding back.
    For x > 0 a value below the smallest normal double raises
    ``FloatingPointError`` instead of rounding to a denormal or to 0.
    """
    import mpmath

    if x == 0.0:
        return 0.0
    digits = 40
    if x < 1.0:
        digits += int(-n_sites * np.log10(x)) + 10
    with mpmath.workdps(digits):
        xm = mpmath.mpf(x)
        total = -mpmath.mpf(1)
        for j in range(1, n_sites):
            chord = mpmath.sqrt(
                xm * xm - 2 * xm * mpmath.cospi(mpmath.mpf(j) / n_sites) + 1
            )
            total += chord if j % 2 else -chord
        if total < np.finfo(float).tiny:
            raise FloatingPointError(f"parity gap at x = {x}, N = {n_sites} is below the double range")
        return float(total)
