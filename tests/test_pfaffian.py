"""Tests for the blocked Parlett-Reid Pfaffian and the SkewMatrix wrapper."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu

import isingring.pfaffian
import isingring.wick
from isingring.dynamics import evolve_quench, init_ferro
from isingring.model import MomentumGrid
from isingring.observables import expectation_c1
from isingring.pfaffian import (
    _BLOCK_STEPS,
    PfaffianDimensionError,
    SkewMatrix,
    SkewSymmetryError,
    Workspace,
    pfaffian,
    working_entries,
)
from tests_support import c1_bordered_reference, pfaffian_reference

#: rows and columns a full panel eliminates
PANEL = 2 * _BLOCK_STEPS
#: small dimensions, one partial panel, and dimensions on both sides of the panel edges
EDGE_SIZES = sorted({
    2, 4, 46, 48, 50,
    PANEL, PANEL + 2, PANEL + 4, 2 * PANEL, 2 * PANEL + 2, 2 * PANEL + 4, 400,
})


def random_skew(n, rng, complex_entries=True):
    m = rng.standard_normal((n, n))
    if complex_entries:
        m = m + 1j * rng.standard_normal((n, n))
    return m - m.T


def random_complex(n, seed):
    """A dense complex skew matrix and a square one, entries scaled by n^{-1/2}.

    The scaling keeps Pf and det far from over- and underflow up to n = 400.
    """
    rng = np.random.default_rng(seed)
    a = random_skew(n, rng) / np.sqrt(n)
    b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    return a, b


def det_via_lu(a):
    """Independent determinant from an LU factorization (not numpy's det)."""
    p, l, u = lu(a)
    # det(P) is the permutation sign
    perm = np.argmax(p, axis=0)
    sign = 1.0
    seen = np.zeros(len(perm), dtype=bool)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign * np.prod(np.diag(l)) * np.prod(np.diag(u))


def test_two_by_two_convention():
    assert pfaffian([[0.0, 3.0 + 4.0j], [-(3.0 + 4.0j), 0.0]]) == pytest.approx(3.0 + 4.0j)


def test_four_by_four_closed_form():
    # Pf = a12 a34 - a13 a24 + a14 a23
    a = np.array(
        [
            [0.0, 1.0, 2.0, 3.0],
            [-1.0, 0.0, 4.0, 5.0],
            [-2.0, -4.0, 0.0, 6.0],
            [-3.0, -5.0, -6.0, 0.0],
        ]
    )
    expected = 1.0 * 6.0 - 2.0 * 5.0 + 3.0 * 4.0
    assert pfaffian(a) == pytest.approx(expected)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_square_equals_determinant(n, complex_entries):
    rng = np.random.default_rng(1000 + n + int(complex_entries))
    for _ in range(5):
        a = random_skew(n, rng, complex_entries)
        pf = pfaffian(a)
        det = det_via_lu(a)
        assert pf**2 == pytest.approx(det, rel=1e-9)


def test_transposition_flips_sign():
    rng = np.random.default_rng(7)
    a = random_skew(8, rng)
    base = pfaffian(a)
    for i, j in [(0, 1), (2, 5), (3, 7)]:
        perm = np.arange(8)
        perm[[i, j]] = perm[[j, i]]
        swapped = a[np.ix_(perm, perm)]
        assert pfaffian(swapped) == pytest.approx(-base, rel=1e-10)


def test_row_column_scaling():
    rng = np.random.default_rng(8)
    a = random_skew(6, rng)
    base = pfaffian(a)
    lam = 2.5 - 0.5j
    scaled = a.copy()
    scaled[2, :] *= lam
    scaled[:, 2] *= lam
    assert pfaffian(scaled) == pytest.approx(lam * base, rel=1e-10)


def test_direct_sum_multiplies():
    rng = np.random.default_rng(9)
    a = random_skew(4, rng)
    b = random_skew(6, rng)
    full = np.zeros((10, 10), dtype=complex)
    full[:4, :4] = a
    full[4:, 4:] = b
    assert pfaffian(full) == pytest.approx(pfaffian(a) * pfaffian(b), rel=1e-10)


def test_singular_matrix_gives_exact_zero():
    # trailing 4x4 block identically zero -> pivot breakdown at step two
    a = np.zeros((6, 6))
    a[0, 1], a[1, 0] = 1.0, -1.0
    assert pfaffian(a) == 0.0
    assert pfaffian(np.zeros((4, 4))) == 0.0


def test_pivoting_handles_zero_leading_entry():
    # a12 = 0 forces a row/column swap; compare against the closed form
    a = np.array(
        [
            [0.0, 0.0, 2.0, 3.0],
            [0.0, 0.0, 4.0, 5.0],
            [-2.0, -4.0, 0.0, 6.0],
            [-3.0, -5.0, -6.0, 0.0],
        ]
    )
    expected = 0.0 * 6.0 - 2.0 * 5.0 + 3.0 * 4.0
    assert pfaffian(a) == pytest.approx(expected)


def test_skewmatrix_symmetrizes_and_records_asymmetry():
    a = np.array([[1e-14, 1.0], [-1.0 + 1e-14, -1e-14]])
    sk = SkewMatrix(a)
    assert sk.max_asymmetry <= 3e-14
    assert np.abs(sk.entries + sk.entries.T).max() == 0.0
    assert np.abs(np.diag(sk.entries)).max() == 0.0


def test_skewmatrix_scale_is_largest_input_entry():
    # for an exactly antisymmetric input the symmetrized copy is the input, bit for bit
    rng = np.random.default_rng(11)
    a = random_skew(9, rng)
    sk = SkewMatrix(a, border=2)
    assert sk.scale == np.abs(a).max()
    np.testing.assert_array_equal(sk.entries, a)


def test_dimension_errors():
    with pytest.raises(PfaffianDimensionError):
        SkewMatrix(np.zeros((3, 3)))
    with pytest.raises(PfaffianDimensionError):
        SkewMatrix(np.zeros((2, 4)))
    with pytest.raises(PfaffianDimensionError):
        SkewMatrix(np.zeros((0, 0)))


def test_asymmetry_error():
    with pytest.raises(SkewSymmetryError):
        SkewMatrix(np.array([[0.0, 1.0], [-0.9, 0.0]]))


def test_accepts_prevalidated_skewmatrix():
    rng = np.random.default_rng(10)
    a = random_skew(6, rng)
    assert pfaffian(SkewMatrix(a)) == pytest.approx(pfaffian(a))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("n", [2, 4])
def test_non_finite_entry_rejected(bad, n):
    upper = np.zeros((n, n), dtype=complex)
    upper[range(0, n, 2), range(1, n, 2)] = 1.0
    upper[0, n - 1] = bad
    a = upper - upper.T
    with pytest.raises(ValueError, match="finite"):
        SkewMatrix(a)
    with pytest.raises(ValueError, match="finite"):
        pfaffian(a)


@pytest.mark.parametrize("n, border", [(6, 0), (9, 2), (PANEL + 8, 3)])
def test_antisymmetric_operand_matches_validated_path(n, border):
    # a complex matrix is neither scanned nor copied, and eliminates to the validated path's values
    a = random_skew(n, np.random.default_rng(n))
    kept = a.copy()
    operand = SkewMatrix.antisymmetric(a, border)
    assert operand.entries is a and len(operand) == operand.dim == n
    assert operand.scale == SkewMatrix(a, border).scale == np.abs(a).max()
    assert operand.max_asymmetry == 0.0
    assert pfaffian(operand, border) == pfaffian(a, border)
    np.testing.assert_array_equal(a, kept)


@pytest.mark.parametrize("dtype", [int, float, complex])
def test_antisymmetric_operand_takes_real_and_integer_entries(dtype):
    upper = np.triu(np.random.default_rng(6).integers(-9, 10, (6, 6)), 1)
    m = (upper - upper.T).astype(dtype)
    if dtype is complex:
        m *= 1 - 2j
    assert pfaffian(SkewMatrix.antisymmetric(m)) == pfaffian(m) != 0.0


def test_antisymmetric_operand_keeps_shape_border_and_finiteness_checks():
    a = random_skew(5, np.random.default_rng(5))
    with pytest.raises(PfaffianDimensionError):
        SkewMatrix.antisymmetric(a)
    with pytest.raises(PfaffianDimensionError):
        SkewMatrix.antisymmetric(a[:4], border=2)
    with pytest.raises(PfaffianDimensionError):
        SkewMatrix.antisymmetric(a, border=5)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        poisoned = a.copy()
        poisoned[1, 3], poisoned[3, 1] = bad, -bad
        with pytest.raises(ValueError, match="finite"):
            SkewMatrix.antisymmetric(poisoned, border=2)
    # a border count is an integer: a bool, a float or a str used to reach the dimension test or fail in it
    for border in (True, 1.0, "1"):
        for call in (lambda: SkewMatrix.antisymmetric(a, border), lambda: SkewMatrix(a, border),
                     lambda: pfaffian(a, border=border), lambda: pfaffian(SkewMatrix.antisymmetric(a, 2), border)):
            with pytest.raises(ValueError, match="^border must be an integer, got "):
                call()


def test_block_direct_sums_with_later_panel_events():
    """A pivot swap and a zero breakdown that fall inside the second panel.

    ``A1`` fills the first panel and three steps of the second; the updates
    it causes are exactly zero on the uncoupled block that follows, so
    elimination meets that block's own first column at step
    ``_BLOCK_STEPS + 3``.
    """
    rng = np.random.default_rng(21)
    a1 = random_skew(PANEL + 6, rng) / np.sqrt(PANEL)
    pf1 = pfaffian_reference(a1)
    m1 = len(a1)

    # a12 = 0 forces a swap; Pf = 0*6 - 2*5 + 3*4 = 2
    a2 = np.array([[0, 0, 2, 3], [0, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]], dtype=float)
    swap = np.zeros((m1 + 4, m1 + 4), dtype=complex)
    swap[:m1, :m1], swap[m1:, m1:] = a1, a2
    assert pfaffian(swap) == pytest.approx(2.0 * pf1, rel=1e-12)
    assert pfaffian(swap) == pytest.approx(pfaffian_reference(swap), rel=1e-12)

    # an all-zero trailing block: both kernels stop there with an exact 0
    zero = np.zeros((m1 + 4, m1 + 4), dtype=complex)
    zero[:m1, :m1] = a1
    assert pfaffian_reference(zero) == 0.0
    assert pfaffian(zero) == 0.0


@pytest.mark.parametrize("n", [6, PANEL + 6])
def test_inputs_left_unmodified(n):
    a = random_skew(n, np.random.default_rng(n))
    kept = a.copy()
    sk = SkewMatrix(a)
    entries = sk.entries.copy()
    pfaffian(a)
    pfaffian(sk)
    assert np.array_equal(a, kept)
    assert np.array_equal(sk.entries, entries)


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
#: no shrink phase: against a broken kernel, shrinking examples of size up to 400 takes minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@pytest.mark.parametrize("n", EDGE_SIZES)
@settings(derandomize=True, max_examples=3, deadline=None, phases=NO_SHRINK)
@given(seed=SEEDS)
def test_matches_unblocked_reference(n, seed):
    a, _ = random_complex(n, seed)
    assert pfaffian(a) == pytest.approx(pfaffian_reference(a), rel=1e-12, abs=0)


@pytest.mark.parametrize("n", EDGE_SIZES)
@settings(derandomize=True, max_examples=2, deadline=None, phases=NO_SHRINK)
@given(seed=SEEDS)
def test_square_equals_determinant_at_panel_edges(n, seed):
    a, _ = random_complex(n, seed)
    assert pfaffian(a) ** 2 == pytest.approx(det_via_lu(a), rel=1e-9, abs=0)


@pytest.mark.parametrize("n", EDGE_SIZES)
@settings(derandomize=True, max_examples=2, deadline=None, phases=NO_SHRINK)
@given(seed=SEEDS)
def test_congruence_multiplies_by_determinant(n, seed):
    a, b = random_complex(n, seed)
    assert pfaffian(b @ a @ b.T) == pytest.approx(det_via_lu(b) * pfaffian(a), rel=1e-9, abs=0)


@pytest.mark.parametrize("n_sites", [20, 40, 100, 160, 200])
def test_engine_words_match_unblocked_reference(n_sites, monkeypatch):
    """The reduced bordered operand of one quench sample, as the Wick engine builds it, against the full matrix."""
    seen = []

    def record(a, border=0):
        seen.append((a, border))
        return pfaffian(a, border)

    monkeypatch.setattr(isingring.wick, "pfaffian", record)
    state = evolve_quench(init_ferro(MomentumGrid(n_sites)), 0.5, 7.3)
    expectation_c1(state)
    assert [border for _, border in seen] == [2] and len(seen[0][0]) < 2 * n_sites + 1
    operand, border = seen[0]
    a = c1_bordered_reference(state).entries
    shared = 2 * n_sites - 1
    for i, value in enumerate(pfaffian(operand, border)):
        even = np.r_[:shared, shared + i]
        assert value == pytest.approx(pfaffian_reference(a[np.ix_(even, even)]), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "n, factor",
    [(600, 1.0), (400, 1e-3), (600, 1e-3)],
    ids=["overflow-600", "underflow-400", "underflow-600"],
)
def test_unrepresentable_pivot_product_raises(n, factor):
    # |Pf| is about 1e442, 1e-323 and 1e-458: past the largest double, subnormal, and below the smallest
    a = random_skew(n, np.random.default_rng(n)) * factor
    with pytest.raises(FloatingPointError, match="pivots"):
        pfaffian(a)


def test_underflowing_threshold_raises_before_a_zero_pivot():
    # entries so small that PIVOT_RTOL times the largest is 0: a pivot of exactly 0 passes
    # the threshold, and the product of the pivots underflows in any case
    a = np.zeros((6, 6))
    a[0, 1], a[2, 3] = 1e-320, 1e-320
    a = a - a.T
    with pytest.raises(FloatingPointError, match="pivots"):
        pfaffian(a)
    with pytest.raises(FloatingPointError, match="pivots"):
        pfaffian(a[:5, :5], border=2)


def test_subnormal_pivot_raises_without_a_warning():
    # the threshold 1e-313 lets the first pivot, 1e-310, through: it is subnormal and has lost digits
    # (a RuntimeWarning, such as 1 / pivot overflowing, fails the suite)
    a = np.zeros((6, 6))
    a[0, 1], a[2, 3], a[4, 5] = 1e-310, 1e-300, 1e-300
    a = a - a.T
    with pytest.raises(FloatingPointError, match="pivots"):
        pfaffian(a)


@pytest.mark.parametrize("n, border", [(2, 0), (PANEL + 6, 0), (3, 2), (5, 2), (PANEL + 6, 3)])
def test_all_zero_operand_gives_exact_zeros(n, border):
    assert pfaffian(np.zeros((n, n)), border) == ((0.0 + 0.0j,) * border if border else 0.0)


def test_null_row_met_only_by_the_border_gives_the_plain_pfaffian():
    # the 3 x 3 block's row 0 is zero, but the rest is not: Pf(M) = 3 * 2
    upper = np.array([[0, 0, 0, 3], [0, 0, 2, 5], [0, 0, 0, 7], [0, 0, 0, 0]], dtype=float)
    m = upper - upper.T
    assert pfaffian(m) == 6.0
    assert pfaffian(m, 1) == (6.0,)


def test_null_row_inside_a_panel_gives_each_words_plain_pfaffian():
    # row 4 of the 9 x 9 block meets only the border columns, and is reached at the third step of a panel
    a = random_bordered(9, 2, 17)
    a[4, :9], a[:9, 4] = 0.0, 0.0
    values = pfaffian(a, 2)
    for i, value in enumerate(values):
        even = np.r_[:9, 9 + i]
        assert value == pytest.approx(pfaffian_reference(a[np.ix_(even, even)]), rel=1e-12, abs=0)
        assert value != 0.0


def test_null_row_whose_rest_is_spent_only_before_the_pending_updates():
    # row 2 of the 5 x 5 block is zero; entry (3, 4) of the rest is 0 until step 0's update
    # makes it -a03 a14 / a01 = -1, so the result is a25 (a01 a34 - a03 a14 + a04 a13) = -2
    a = np.zeros((6, 6))
    a[0, 1], a[0, 3], a[1, 4], a[2, 5] = 1.0, 1.0, 1.0, 2.0
    a[[0, 1, 3, 4], 5] = 3.0, 5.0, 7.0, 11.0
    a = a - a.T
    assert pfaffian_reference(a) == pytest.approx(-2.0, rel=1e-12)
    assert pfaffian(a, 1) == pytest.approx((-2.0,), rel=1e-12)


@pytest.mark.parametrize(
    "pairs, expected",
    [(((0, 1, 1e20), (2, 3, 1.0), (4, 5, 1.0)), 1e20),
     (((0, 1, 1.0), (2, 3, 1e-14), (4, 5, 1.0)), 1e-14),
     # the 1e-14 row reaches step 2 through the swap of rows 1 and 2 at step 0
     (((0, 2, 1.0), (1, 4, 1e-14), (3, 5, 1.0)), 1e-14)],
    ids=["large-block", "small-block", "small-block-after-a-swap"],
)
def test_pivot_small_only_against_the_largest_entry_is_not_spent(pairs, expected):
    # block-diagonal up to a permutation: a pivot below PIVOT_RTOL times the largest entry
    # but not below that of its own row is a true pivot, not a spent row
    a = np.zeros((6, 6))
    for i, j, x in pairs:
        a[i, j], a[j, i] = x, -x
    assert pfaffian(a) == pytest.approx(expected, rel=1e-12, abs=0)
    # the same matrix as a 5 x 5 block with its last column as the border
    assert pfaffian(a, 1) == pytest.approx((expected,), rel=1e-12, abs=0)


def test_zero_last_entry_is_a_true_zero():
    # the pivots are fine and the last factor is exactly 0: no error, an exact 0
    a = np.zeros((4, 4))
    a[0, 1], a[1, 2], a[1, 3] = 1.0, 2.0, 3.0
    a = a - a.T
    assert pfaffian(a) == 0.0
    block = random_skew(5, np.random.default_rng(5))
    bordered = np.zeros((7, 7), dtype=complex)
    bordered[:5, :5] = block
    bordered[:5, 6] = np.arange(1, 6)
    bordered[6, :5] = -np.arange(1, 6)
    zero, value = pfaffian(bordered, 2)
    assert zero == 0.0
    even = np.r_[:5, 6]
    assert value == pytest.approx(pfaffian_reference(bordered[np.ix_(even, even)]))


def test_bordered_closed_form_and_validation():
    # a 3 x 3 block with two border columns x and y: two 4 x 4 Pfaffians
    block = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]])
    x, y = np.array([4.0, 5.0, 6.0]), np.array([7.0, 0.0, 1.0j])
    a = np.zeros((5, 5), dtype=complex)
    a[:3, :3], a[:3, 3], a[:3, 4] = block, x, y
    a = np.triu(a) - np.triu(a).T
    # Pf = a01 x2 - a02 x1 + a12 x0; a 1 x 1 block with a border is the 2 x 2 convention
    assert pfaffian(a, 2) == pytest.approx((1 * 6 - 2 * 5 + 3 * 4, 1 * 1j - 2 * 0 + 3 * 7))
    assert pfaffian(a[[0, 3], :][:, [0, 3]], 1) == (4.0 + 0j,)
    assert pfaffian(SkewMatrix(a, 2), 2) == pfaffian(a, 2)
    with pytest.raises(PfaffianDimensionError):
        SkewMatrix(a[:4, :4], 2)
    with pytest.raises(PfaffianDimensionError):
        SkewMatrix(a, 5)
    with pytest.raises(PfaffianDimensionError):
        pfaffian(SkewMatrix(a, 2), 1)


#: odd leading blocks of one partial panel, of one panel and of one and a half
BORDERED_BLOCKS = sorted({
    3, 5, 9, 11, 47, 49, PANEL - 1, PANEL + 1, 3 * PANEL // 2 - 1, 3 * PANEL // 2 + 1,
})
BORDERS = st.integers(min_value=1, max_value=3)


def random_bordered(d, border, seed, rank=None):
    """A random skew matrix of dimension d + border whose leading d x d block has at most the given rank."""
    rng = np.random.default_rng(seed)
    a = random_skew(d + border, rng) / np.sqrt(d)
    if rank is not None:
        q = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(d)
        a[:d, :d] = q @ random_skew(rank, rng) @ q.T / np.sqrt(max(rank, 1))
    return a


@pytest.mark.parametrize("d", BORDERED_BLOCKS)
@settings(derandomize=True, max_examples=3, deadline=None, phases=NO_SHRINK)
@given(seed=SEEDS, border=BORDERS)
def test_bordered_matches_unblocked_reference(d, seed, border):
    a = random_bordered(d, border, seed)
    values = pfaffian(a, border)
    assert isinstance(values, tuple) and len(values) == border
    for i, value in enumerate(values):
        even = np.r_[:d, d + i]
        assert value == pytest.approx(pfaffian_reference(a[np.ix_(even, even)]), rel=1e-12, abs=0)


@pytest.mark.parametrize("d", BORDERED_BLOCKS)
@settings(derandomize=True, max_examples=2, deadline=None, phases=NO_SHRINK)
@given(seed=SEEDS, border=BORDERS, deficit=st.sampled_from([3, 5, 7]))
def test_rank_deficient_block_gives_exact_zeros(d, seed, border, deficit):
    # each bordered Pfaffian is linear in the (d - 1)-minors of the block, which all vanish;
    # a deficit larger than the block leaves it all zero
    a = random_bordered(d, border, seed, rank=max(d - deficit, 0))
    assert pfaffian(a, border) == (0.0 + 0.0j,) * border


class TestStacks:
    """A (B, n, n) stack is eliminated at once; each member's result is the one it has alone."""

    @staticmethod
    def members(n, border, scales, seed):
        rng = np.random.default_rng(seed)
        return [random_skew(n, rng) / np.sqrt(n) * scale for scale in scales]

    @pytest.mark.parametrize("n, border, scales", [
        # scales 1e200 apart, each member with its own PIVOT_RTOL threshold; the larger sizes
        # keep the pivot products in the double range
        (2, 0, (1e-100, 1.0, 1e100)), (6, 0, (1e-100, 1.0, 1e100)),
        (3, 2, (1e-100, 1.0, 1e100)), (5, 2, (1e-60, 1.0, 1e60)),
        (PANEL + 6, 0, (1e-8, 1.0, 1e8, 3.0)), (11, 2, (1e-8, 1.0, 1e8)),
        (PANEL + 5, 2, (1e-8, 1.0, 1e8)), (10, 3, (0.5, 2.0)),
        # a stack of one
        (6, 0, (1.0,)), (PANEL + 6, 0, (1e8,)), (11, 2, (1.0,)),
    ])
    def test_equals_each_member_alone_bit_for_bit(self, n, border, scales, monkeypatch):
        members = self.members(n, border, scales, seed=n + border)
        # no pivot of these members is small against the member's own largest entry, so none is
        # measured again; a threshold taken over the whole stack would measure every pivot of
        # the members smaller than the largest
        small = []
        monkeypatch.setattr(isingring.pfaffian, "_small_pivot", lambda *args: small.append(args))
        stack = pfaffian(np.stack(members), border)
        assert not small
        assert isinstance(stack, list) and len(stack) == len(members)
        assert stack == [pfaffian(m, border) for m in members]

    def test_small_member_is_not_spent_by_a_large_one(self):
        # the (1, 1e-14, 1) block-diagonal member, scaled by 1e-20, beside one scaled by 1e20:
        # against a threshold of the whole stack every pivot of the small member would fail
        a = np.zeros((6, 6))
        for i, j, x in ((0, 1, 1.0), (2, 3, 1e-14), (4, 5, 1.0)):
            a[i, j], a[j, i] = x, -x
        stack = np.stack([a * 1e20, a * 1e-20])
        assert pfaffian(stack) == [pfaffian(a * 1e20), pfaffian(a * 1e-20)]
        assert pfaffian(stack)[1] == pytest.approx(1e-74, rel=1e-12)
        # the same matrices as a 5 x 5 block with its last column as the border
        assert pfaffian(stack, 1) == [pfaffian(a * s, 1) for s in (1e20, 1e-20)]

    @pytest.mark.parametrize("d", [9, PANEL + 7])
    def test_spent_members_give_what_they_give_alone(self, d, monkeypatch):
        # exact zeros (a rank-deficient block, spent at step k = 4), each word's own Pfaffian (a
        # null row met only by the border, spent when the elimination reaches it at k = d - 5),
        # and ordinary members around them; a spent member stays in the stack as zeros. At
        # d = PANEL + 7 the null row is reached in the second panel, after a panel product
        border, null = 2, d - 5
        zeros = random_bordered(d, border, 3, rank=4)
        words = random_bordered(d, border, 17)
        words[null, :d], words[:d, null] = 0.0, 0.0
        members = [random_bordered(d, border, 1), zeros, words, random_bordered(d, border, 2)]
        alone = [pfaffian(m, border) for m in members]
        assert alone[1] == (0.0 + 0.0j,) * border and 0.0 not in alone[2]
        spent_at, small_pivot = [], isingring.pfaffian._small_pivot

        def recorded(*args):
            result = small_pivot(*args)
            if result[0] is not None:
                spent_at.append(args[5])
            return result

        monkeypatch.setattr(isingring.pfaffian, "_small_pivot", recorded)
        assert pfaffian(np.stack(members), border) == alone
        assert sorted(spent_at) == [4, null]
        # every member spent
        assert pfaffian(np.stack([zeros, zeros]), border) == [alone[1]] * 2
        assert pfaffian(np.zeros((3, 4, 4))) == [0.0] * 3
        # each as a stack of one
        for member, result in zip(members, alone):
            assert pfaffian(member[None], border) == [result]
        assert pfaffian(np.zeros((1, 4, 4))) == [0.0]

    def test_range_error_names_the_member(self):
        # the product of three pivots of 1e-150 underflows; its neighbours are fine
        tiny = np.zeros((6, 6))
        for i in (0, 2, 4):
            tiny[i, i + 1], tiny[i + 1, i] = 1e-150, -1e-150
        fine = random_skew(6, np.random.default_rng(4))
        with pytest.raises(FloatingPointError, match="stack member 1: the product of the pivots") as raised:
            pfaffian(np.stack([fine, tiny, fine]))
        assert raised.value.member == 1
        # a subnormal pivot, found in the small-pivot branch
        subnormal = np.zeros((6, 6))
        subnormal[0, 1], subnormal[2, 3], subnormal[4, 5] = 1e-310, 1e-300, 1e-300
        subnormal = subnormal - subnormal.T
        with pytest.raises(FloatingPointError, match="stack member 2: pivots") as raised:
            pfaffian(np.stack([fine, fine, subnormal]))
        assert raised.value.member == 2
        # a stack of one names its member 0; one matrix raises the same error unnamed
        for matrix, cause in ((tiny, "the product of the pivots"), (subnormal, "pivots")):
            with pytest.raises(FloatingPointError, match=f"stack member 0: {cause}") as raised:
                pfaffian(matrix[None])
            assert raised.value.member == 0
            with pytest.raises(FloatingPointError, match=f"^{cause}") as raised:
                pfaffian(matrix)
            assert not hasattr(raised.value, "member")

    def test_validation_names_the_member(self):
        members = np.stack(self.members(4, 0, (1.0, 2.0, 3.0), seed=5))
        operand = SkewMatrix(members)
        assert operand.dim == len(operand) == 4
        np.testing.assert_array_equal(operand.scale, np.abs(members).max(axis=(1, 2)))
        poisoned = members.copy()
        poisoned[2, 0, 3], poisoned[2, 3, 0] = np.nan, np.nan
        with pytest.raises(ValueError, match="finite in stack member 2"):
            SkewMatrix(poisoned)
        with pytest.raises(ValueError, match="finite in stack member 2"):
            SkewMatrix.antisymmetric(poisoned)
        skewed = members.copy()
        skewed[1, 0, 1] += 0.5
        with pytest.raises(SkewSymmetryError, match="stack member 1"):
            SkewMatrix(skewed)
        with pytest.raises(PfaffianDimensionError):
            SkewMatrix(members[None])
        with pytest.raises(PfaffianDimensionError):
            SkewMatrix(members[:, :3, :3])


class TestWorkspace:
    """The flat buffer the kernel and the <c_1> engine carve their working arrays from."""

    def test_a_miss_at_least_doubles_the_buffer(self):
        space = Workspace()
        space.reserve(100)
        assert space.buffer.size == 100
        first = space.take((6, 10))
        first[...] = 7.0
        buffers = [space.buffer]
        # past the reservation: one new buffer, twice as large, for this take and the next ones
        for _ in range(4):
            space.take((2, 15), float)
            if space.buffer is not buffers[-1]:
                buffers.append(space.buffer)
        assert [b.size for b in buffers] == [100, 200] and space.top == 60 + 4 * 15
        # an array taken before keeps its buffer and its entries
        assert (first == 7.0).all() and first.base is buffers[0]
        space.top = 0
        space.reserve(150)
        assert space.buffer is buffers[-1]

    @pytest.mark.parametrize("shape, border", [
        ((2, 2), 0), ((11, 11), 2), ((PANEL + 3, PANEL + 3), 2), ((2 * PANEL + 5, 2 * PANEL + 5), 2),
        ((3, 10, 10), 0), ((4, PANEL + 4, PANEL + 4), 0), ((2, 141, 141), 2),
    ])
    def test_working_entries_is_what_the_kernel_takes(self, shape, border):
        class Watched(Workspace):
            peak = 0

            def take(self, shape, dtype=complex):
                array = super().take(shape, dtype)
                self.peak = max(self.peak, self.top)
                return array

        rng = np.random.default_rng(shape[-1])
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = m - np.swapaxes(m, -1, -2)
        space = Watched()
        space.reserve(working_entries(shape, border))
        buffer = space.buffer
        result = pfaffian(SkewMatrix.antisymmetric(m, border, workspace=space), border)
        assert space.peak == working_entries(shape, border) and space.top == 0 and space.buffer is buffer
        assert result == pfaffian(m, border)
