"""Tests for mode bookkeeping, contractions, and Wick evaluation."""

import numpy as np
import pytest

from isingring import oracle_ed
from isingring.model import MomentumGrid, bogoliubov_angle
from isingring.wick import EVEN, ODD, ModeIndex, contractions
from tests_support import (
    FermionWord,
    as_word,
    bcs_amplitudes,
    bra_word,
    contraction_kernel,
    dense_expectation,
    dense_kernel,
    inner_product_Imn,
    ket_word,
    mode_slot,
)


def random_word(rng, n_sites, length):
    """A word of ``length`` dense random linear forms."""
    z = rng.standard_normal((4, length, 2 * n_sites))
    return FermionWord(z[0] + 1j * z[1], z[2] + 1j * z[3])


def rows(w, picks):
    """The word made of the factors ``picks`` of ``w``, in that order."""
    return FermionWord(w.ann[picks], w.cre[picks])


def pair(w, i, j):
    """The contraction ``<vac| w_i w_j |vac>`` as a two-factor word."""
    return dense_expectation(rows(w, [i, j]))


def three_pairings(w):
    """Wick's sum over the three pairings of a four-factor word."""
    return (pair(w, 0, 1) * pair(w, 2, 3) - pair(w, 0, 2) * pair(w, 1, 3)
            + pair(w, 0, 3) * pair(w, 1, 2))


class TestModeIndex:
    def test_momentum_values(self):
        assert ModeIndex(EVEN, 1, 4).momentum == pytest.approx(np.pi / 4)
        assert ModeIndex(ODD, 2, 4).momentum == pytest.approx(np.pi / 2)
        assert ModeIndex(ODD, -4, 4).momentum == pytest.approx(-np.pi)

    def test_negate(self):
        assert ModeIndex(EVEN, 3, 8).negate() == ModeIndex(EVEN, -3, 8)
        assert ModeIndex(ODD, 0, 8).negate() == ModeIndex(ODD, 0, 8)
        # -pi is self-conjugate on the integer grid
        assert ModeIndex(ODD, -8, 8).negate() == ModeIndex(ODD, -8, 8)

    def test_grid_parity_validation(self):
        with pytest.raises(ValueError):
            ModeIndex(EVEN, 2, 8)
        with pytest.raises(ValueError):
            ModeIndex(ODD, 3, 8)
        with pytest.raises(ValueError):
            ModeIndex(EVEN, 9, 8)

    def test_grids_cover_all_modes(self):
        grid = MomentumGrid(8)
        assert len(grid.k_plus) == 8
        assert len(grid.k_minus) == 8
        assert len(grid.positive_plus()) == 4
        assert len(grid.positive_minus()) == 3
        np.testing.assert_allclose(sorted(grid.k_plus), grid.k_plus)
        assert grid.special_pi().momentum == pytest.approx(-np.pi)
        assert grid.special_zero().momentum == 0.0


class TestContractionKernel:
    def test_same_sector_is_delta(self):
        a = ModeIndex(EVEN, 1, 4)
        b = ModeIndex(EVEN, 3, 4)
        assert contraction_kernel(a, a) == 1.0
        assert contraction_kernel(a, b) == 0.0

    def test_cross_sector_closed_form(self):
        # N = 4, k = pi/4 (even grid) against k' = pi/2 (odd grid)
        k = ModeIndex(EVEN, 1, 4)
        kp = ModeIndex(ODD, 2, 4)
        expected = 0.5 / (np.exp(-1j * np.pi / 4) - 1.0)
        assert contraction_kernel(k, kp) == pytest.approx(expected)

    def test_adjoint_symmetry(self):
        # <c_k c^dag_kp>* = <c_kp c^dag_k> for every cross pair
        grid = MomentumGrid(6)
        for k in grid.positive_plus():
            for kp in grid.positive_minus() + [grid.special_zero(), grid.special_pi()]:
                assert np.conj(contraction_kernel(k, kp)) == pytest.approx(
                    contraction_kernel(kp, k)
                )

    def test_mixed_ring_sizes_rejected(self):
        with pytest.raises(ValueError):
            contraction_kernel(ModeIndex(EVEN, 1, 4), ModeIndex(ODD, 2, 6))


def all_modes(n):
    """Every mode of both grids, k = 0 and k = -pi included."""
    return [ModeIndex(EVEN, m, n) for m in range(1 - n, n, 2)] + [
        ModeIndex(ODD, m, n) for m in range(-n, n, 2)]


class TestSlotOrder:
    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_every_mode_gets_its_own_column(self, n):
        modes = all_modes(n)
        slots = [int(mode_slot(k.index, n)) for k in modes]
        assert sorted(slots) == list(range(2 * n))
        np.testing.assert_array_equal(mode_slot([k.index for k in modes], n), slots)

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_kernel_follows_the_slot_order(self, n):
        kernel = dense_kernel(n)
        np.testing.assert_array_equal(kernel[:n, :n], np.eye(n))
        np.testing.assert_array_equal(kernel[n:, n:], np.eye(n))
        for k in all_modes(n):
            for kp in all_modes(n):
                assert kernel[mode_slot(k.index, n), mode_slot(kp.index, n)] == pytest.approx(
                    contraction_kernel(k, kp), rel=1e-14, abs=1e-15
                )


class TestContractions:
    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_one_mode_factors_match_scalar_kernel(self, n):
        # factor i is a_i c_{k_i} + b_i c^dag_{k_i}, so entry (i, j) is a_i <c_{k_i} c^dag_{k_j}> b_j
        modes = all_modes(n)
        index = np.array([k.index for k in modes])
        rng = np.random.default_rng(n)
        coeff = rng.standard_normal((2, len(modes))) + 1j * rng.standard_normal((2, len(modes)))
        matrix = contractions(np.array([index, index]), coeff, n)
        for i, k in enumerate(modes):
            for j, kp in enumerate(modes):
                assert matrix[i, j] == pytest.approx(
                    coeff[0, i] * contraction_kernel(k, kp) * coeff[1, j], rel=1e-14, abs=1e-15
                )


class TestContractPair:
    """A two-factor word's expectation is the contraction of the pair."""

    def test_annihilator_against_creator_only(self):
        k = ModeIndex(EVEN, 1, 8)
        c, cdag = ({k: 1.0}, {}), ({}, {k: 1.0})
        assert dense_expectation(as_word([c, cdag])) == 1.0
        assert dense_expectation(as_word([cdag, c])) == 0.0
        assert dense_expectation(as_word([c, c])) == 0.0

    def test_bilinearity(self):
        rng = np.random.default_rng(3)
        w = random_word(rng, 8, 3)
        lam = 0.7 - 0.2j
        combined = FermionWord(
            np.stack([w.ann[0], w.ann[1] + lam * w.ann[2]]),
            np.stack([w.cre[0], w.cre[1] + lam * w.cre[2]]),
        )
        assert dense_expectation(combined) == pytest.approx(pair(w, 0, 1) + lam * pair(w, 0, 2))


class TestVacuumExpectation:
    def test_empty_and_odd_words(self):
        assert dense_expectation(as_word([], 8)) == 1.0
        k = ModeIndex(EVEN, 1, 8)
        assert dense_expectation(as_word([({k: 1.0}, {})])) == 0.0

    def test_single_pair(self):
        k = ModeIndex(ODD, 2, 8)
        w = as_word([({k: 2.0j}, {}), ({}, {k: 3.0})])
        assert dense_expectation(w) == pytest.approx(6.0j)

    def test_two_pair_number_word(self):
        # <c_k c^dag_k c_kp c^dag_kp> = 1 for distinct same-sector modes
        k = ModeIndex(EVEN, 1, 8)
        kp = ModeIndex(EVEN, 3, 8)
        ops = [({k: 1.0}, {}), ({}, {k: 1.0}), ({kp: 1.0}, {}), ({}, {kp: 1.0})]
        assert dense_expectation(as_word(ops)) == pytest.approx(1.0)

    def test_four_operator_word_matches_three_pairings(self):
        rng = np.random.default_rng(11)
        w = random_word(rng, 8, 4)
        assert dense_expectation(w) == pytest.approx(three_pairings(w), rel=1e-12)

    @pytest.mark.parametrize("length", [4, 6, 8])
    def test_adjacent_swap_antisymmetry(self, length):
        # anticommuting two neighbors flips the sign plus adds the contraction
        rng = np.random.default_rng(20 + length)
        w = random_word(rng, 6, length)
        base = dense_expectation(w)
        for i in range(length - 1):
            order = list(range(length))
            order[i], order[i + 1] = order[i + 1], order[i]
            swapped = dense_expectation(rows(w, order))
            rest = order[:i] + order[i + 2:]
            anticomm = pair(w, i, i + 1) + pair(w, i + 1, i)
            reduced = anticomm * dense_expectation(rows(w, rest))
            assert swapped == pytest.approx(reduced - base, rel=1e-9, abs=1e-12)

    def test_dagger_word_conjugates(self):
        rng = np.random.default_rng(31)
        for length in (2, 4, 6):
            w = random_word(rng, 8, length)
            daggered = w.dagger()
            assert len(daggered) == length
            np.testing.assert_array_equal(daggered.dagger().ann, w.ann)
            np.testing.assert_array_equal(daggered.dagger().cre, w.cre)
            assert dense_expectation(daggered) == pytest.approx(
                np.conj(dense_expectation(w)), rel=1e-10, abs=1e-14
            )


class TestInnerProductImn:
    def test_trivial_cases(self):
        assert inner_product_Imn([], []) == 1.0

    def test_input_validation(self):
        p = ModeIndex(EVEN, 1, 8)
        k = ModeIndex(ODD, 2, 8)
        with pytest.raises(ValueError):
            inner_product_Imn([(p, 1.0, 0.0)], [(k, 0.6, 0.8)])  # |v| too small
        with pytest.raises(ValueError):
            inner_product_Imn([(p.negate(), 0.6, 0.8)], [(k, 0.6, 0.8)])
        with pytest.raises(ValueError):
            inner_product_Imn([(p, 0.6, 0.8)], [(ModeIndex(EVEN, 3, 8), 0.6, 0.8)])

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (4, 3)])
    def test_matches_division_free_word(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        grid = MomentumGrid(12)
        bra_modes = grid.positive_plus()[:m]
        ket_modes = grid.positive_minus()[:n]
        for trial in range(5):
            bra = [(mode, *uv) for mode, uv in zip(bra_modes, bcs_amplitudes(rng, m, 0.1))]
            ket = [(mode, *uv) for mode, uv in zip(ket_modes, bcs_amplitudes(rng, n, 0.1))]
            word = as_word(bra_word(bra) + ket_word(ket))
            assert inner_product_Imn(bra, ket) == pytest.approx(
                dense_expectation(word), rel=1e-9, abs=1e-12
            )

    def test_swapped_sectors(self):
        rng = np.random.default_rng(42)
        grid = MomentumGrid(8)
        bra = [(grid.positive_minus()[0], *bcs_amplitudes(rng, 1, 0.1)[0])]
        ket = [(grid.positive_plus()[1], *bcs_amplitudes(rng, 1, 0.1)[0])]
        word = as_word(bra_word(bra) + ket_word(ket))
        assert inner_product_Imn(bra, ket) == pytest.approx(
            dense_expectation(word), rel=1e-9
        )

    def test_one_one_against_explicit_pairings(self):
        rng = np.random.default_rng(5)
        grid = MomentumGrid(8)
        bra = [(grid.positive_plus()[0], *bcs_amplitudes(rng, 1, 0.1)[0])]
        ket = [(grid.positive_minus()[0], *bcs_amplitudes(rng, 1, 0.1)[0])]
        w = as_word(bra_word(bra) + ket_word(ket))
        assert inner_product_Imn(bra, ket) == pytest.approx(three_pairings(w), rel=1e-10)

    def test_full_size_overlap_against_dense_oracle(self):
        # <even product at t=0 | odd product at t=0 (no zero mode)> on N = 8
        n_sites = 8
        grid = MomentumGrid(n_sites)
        bra = []
        for mode in grid.positive_plus():
            k = mode.momentum
            bra.append((mode, np.sin(k / 2.0), np.cos(k / 2.0)))
        ket = []
        for mode in grid.positive_minus():
            k = mode.momentum
            ket.append((mode, np.sin(k / 2.0), np.cos(k / 2.0)))

        even = oracle_ed.build_momentum_sgs(n_sites, "even", 0.0).amplitudes
        psi = np.zeros(2**n_sites, dtype=complex)
        psi[0] = 1.0
        for mode in grid.positive_minus():
            k = mode.momentum
            sin_half, cos_half = bogoliubov_angle(k, 0.0)
            paired = oracle_ed._apply_ckdag(
                oracle_ed._apply_ckdag(psi, n_sites, -k), n_sites, k
            )
            psi = cos_half * psi + sin_half * paired
        dense = np.vdot(even, psi)

        assert inner_product_Imn(bra, ket) == pytest.approx(dense, rel=1e-9)
        word = as_word(bra_word(bra) + ket_word(ket))
        assert dense_expectation(word) == pytest.approx(dense, rel=1e-9)
