"""Shared helpers for tests: the reference oracles (the unblocked Pfaffian,
dense coefficient-array words and their dense contraction kernel, the dense
two-word ``<c_1>`` fill, dict-operator BCS words, the per-word ``<c_1>``, the
scalar contraction kernel, the explicit overlap formula, the per-mode
propagator).  A reference operator is a pair ``(ann, cre)`` of dicts
``{ModeIndex: coefficient}``."""

from dataclasses import dataclass

import numpy as np

from isingring import observables
from isingring.model import mode_hamiltonian_even
from isingring.pfaffian import PIVOT_RTOL, SkewMatrix, pfaffian
from isingring.wick import vacuum_expectation


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


def dense_expectation(word: FermionWord) -> complex:
    """Vacuum expectation of a dense word through its dense contraction matrix."""
    return vacuum_expectation(dense_contractions(word))


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

    The same rows as ``observables._c1_words``, under the current
    ``observables._TERM_SIGNS``, with ``c_1`` as one dense annihilator row:

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
    plus = list(zip(grid.positive_plus(), state.u_plus, state.v_plus))
    minus = list(zip(grid.positive_minus(), state.u_minus, state.v_minus))
    zero_mode = grid.special_zero()
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
    return (*sector(grid.positive_plus(), state.u_plus, state.v_plus),
            *sector(grid.positive_minus(), state.u_minus, state.v_minus))
