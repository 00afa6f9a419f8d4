"""Tests for dispersion, Bogoliubov angles, sector energies, and diagnostics."""

import copy
import dataclasses
import pickle
import time

import mpmath
import numpy as np
import pytest

from isingring import model
from isingring.model import (
    MomentumGrid,
    bogoliubov_angle,
    cat_norm_identity,
    chord_excess,
    delta_l,
    dispersion,
    gap_delta,
    sgs_energies,
    xyz_factorization,
)
from tests_support import _gap_precise, mode_hamiltonian_even, special_mode_energies


class TestGrid:
    def test_even_grid_n4(self):
        grid = MomentumGrid(4)
        np.testing.assert_array_equal(grid.plus, [1, 3])
        np.testing.assert_array_equal(grid.minus, [2])

    @pytest.mark.parametrize("n", [4, 6, 8, 16, 100])
    def test_positive_mode_indices(self, n):
        # N/2 odd indices and N/2 - 1 even ones, ascending inside (0, N)
        grid = MomentumGrid(n)
        for modes, count, parity in ((grid.plus, n // 2, 1), (grid.minus, n // 2 - 1, 0)):
            assert modes.dtype.kind == "i"
            assert len(modes) == count
            assert np.all(modes % 2 == parity)
            assert np.all((modes > 0) & (modes < n))
            assert np.all(np.diff(modes) > 0)

    def test_rejects_odd_or_tiny_rings(self):
        for n in (3, 5, 2, 0):
            with pytest.raises(ValueError):
                MomentumGrid(n)

    @pytest.mark.parametrize("n", [8.0, 8.5, "8", True, np.True_])
    def test_rejects_non_integer_size(self, n):
        # a float size used to pass here and fail later, slicing inside the engine
        with pytest.raises(ValueError, match="integer"):
            MomentumGrid(n)

    def test_numpy_integer_size_accepted(self):
        grid = MomentumGrid(np.int64(8))
        np.testing.assert_array_equal(grid.plus, MomentumGrid(8).plus)
        np.testing.assert_array_equal(grid.minus, MomentumGrid(8).minus)


class TestGridTables:
    TABLES = ("plus", "minus", "momenta", "cos_k", "sin_k", "ann", "cre", "kappa", "ann_phase", "cre_phase")

    def test_tables_are_read_only(self):
        grid = MomentumGrid(8)
        for name in self.TABLES:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(grid, name, np.zeros(3))
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[0] = 0

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
    def test_copies_build_read_only_tables(self, clone):
        grid = MomentumGrid(8)
        twin = clone(grid)
        assert twin == grid
        for name in self.TABLES:
            assert not getattr(twin, name).flags.writeable
            np.testing.assert_array_equal(getattr(twin, name), getattr(grid, name))

    @pytest.mark.parametrize("n", [4, 6, 10, 40])
    def test_tables_equal_their_definitions(self, n):
        grid = MomentumGrid(n)
        k = np.pi * np.r_[grid.plus, grid.minus] / n
        np.testing.assert_array_equal(grid.momenta, k)
        np.testing.assert_array_equal(grid.cos_k, np.cos(k))
        np.testing.assert_array_equal(grid.sin_k, np.sin(k))
        # the operand's interleaving: c_{-k}, c_k per bra pair; c^dag_q, c^dag_{-q} per ket pair, c^dag_0
        np.testing.assert_array_equal(grid.ann, [m for p in range(1, n, 2) for m in (-p, p)])
        np.testing.assert_array_equal(grid.cre, [m for q in range(2, n, 2) for m in (q, -q)] + [0])
        np.testing.assert_allclose(grid.ann_phase, np.exp(-1j * np.pi * grid.ann / n), rtol=1e-15, atol=0)
        np.testing.assert_allclose(grid.cre_phase, np.exp(1j * np.pi * grid.cre / n), rtol=1e-15, atol=0)
        for d in range(1 - 2 * n, 2 * n):
            if d % 2:
                expected = (2.0 / n) / (np.exp(1j * np.pi * d / n) - 1.0)
                assert grid.kappa[d] == pytest.approx(expected, rel=1e-14, abs=0)
            else:
                assert grid.kappa[d] == (d == 0)

    @pytest.mark.parametrize("n", [4, 10, 100])
    def test_tables_are_linear_in_the_ring(self, n):
        grid = MomentumGrid(n)
        assert max(getattr(grid, name).size for name in self.TABLES) <= 4 * n

    def test_equal_grids_compare_and_hash_equal(self):
        a, b = MomentumGrid(8), MomentumGrid(np.int64(8))
        assert a == b and hash(a) == hash(b)
        assert a != MomentumGrid(10)
        assert len({a, b, MomentumGrid(10)}) == 2
        assert repr(a) == "MomentumGrid(n_sites=8)"


class TestDispersion:
    def test_closed_form_points(self):
        assert dispersion(0.0, 1.0) == pytest.approx(4.0)
        assert dispersion(np.pi, 1.0) == pytest.approx(0.0)
        assert dispersion(np.pi / 2, 0.5) == pytest.approx(2.0 * np.sqrt(1.25))

    def test_matches_mode_hamiltonian_spectrum(self):
        # the 2x2 mode generator has eigenvalues +-Lambda_k
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi)
            g = rng.uniform(0.0, 3.0)
            evals = np.linalg.eigvalsh(mode_hamiltonian_even(k, g))
            assert evals[1] == pytest.approx(dispersion(k, g), abs=1e-12)
            assert evals[0] == pytest.approx(-dispersion(k, g), abs=1e-12)

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf, True, "0.1", np.array([0.1, np.nan]),
                                   [0.1, np.inf], np.zeros((2, 2))])
    def test_bad_momentum_raises(self, k):
        # no silent NaN and no numpy warning: k is checked as bogoliubov_angle checks it
        with np.errstate(all="raise"):
            for function in (dispersion, model.mode_coefficients):
                with pytest.raises(ValueError, match="^k (entry )?must be "):
                    function(k, 0.5)

    def test_momentum_array_accepted(self):
        k = np.array([0.1, 1.2, -2.0])
        np.testing.assert_array_equal(dispersion(k, 0.5), [dispersion(x, 0.5) for x in k])
        np.testing.assert_array_equal(dispersion(list(k), 0.5), dispersion(k, 0.5))

    @pytest.mark.parametrize("g", [1e155, 1e200, -1e200])
    def test_sector_energies_finite_at_large_fields(self, g):
        # each mode energy is about 2 |g|, and g^2 is beyond the double range
        e_plus, e_minus = sgs_energies(MomentumGrid(8), g)
        assert e_plus == pytest.approx(-8.0 * abs(g), rel=1e-15)
        assert e_minus == pytest.approx(-6.0 * abs(g), rel=1e-15)


class TestBogoliubovAngle:
    def test_diagonalizes_mode_hamiltonian(self):
        # the angle must rotate the generator onto diag(-Lambda, +Lambda)
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = rng.uniform(0.05, np.pi - 0.05) * rng.choice([-1.0, 1.0])
            g = rng.uniform(0.0, 3.0)
            s, c = bogoliubov_angle(k, g)
            assert s * s + c * c == pytest.approx(1.0, abs=1e-14)
            # ground eigenvector (cos, sin) at -Lambda, excited (sin, -cos) at +Lambda
            rot = np.array([[c, s], [s, -c]])
            h = np.real(mode_hamiltonian_even(k, g))
            diag = rot.T @ h @ rot
            lam = dispersion(k, g)
            np.testing.assert_allclose(
                diag, np.diag([-lam, lam]), atol=1e-10 * max(lam, 1.0)
            )

    def test_zero_field_half_angle(self):
        s, c = bogoliubov_angle(np.pi / 3, 0.0)
        assert s == pytest.approx(np.cos(np.pi / 6))
        assert c == pytest.approx(np.sin(np.pi / 6))

    @pytest.mark.parametrize("g", [1e3, 1e8])
    def test_large_field_matches_mpmath(self, g):
        # cos(theta/2) is about 1/g there: lam - a must not cancel
        with mpmath.workdps(50):
            a, b = 2 * (mpmath.cos(1) + g), -2 * mpmath.sin(1)
            num_c = mpmath.sqrt(a * a + b * b) - a
            norm = mpmath.sqrt(b * b + num_c * num_c)
            expected = (float(-b / norm), float(num_c / norm))
        for value, reference in zip(bogoliubov_angle(1.0, g), expected):
            assert value == pytest.approx(reference, rel=1e-13, abs=0)

    def test_special_modes_rejected(self):
        for k in (0.0, np.pi, -np.pi):
            with pytest.raises(ValueError):
                bogoliubov_angle(k, 1.0)


def test_special_mode_energies():
    h1_pi, h2_pi, h1_0, h2_0 = special_mode_energies(0.5)
    assert (h1_pi, h2_pi) == (-1.0, 1.0)
    assert (h1_0, h2_0) == (3.0, -3.0)
    # the frozen occupation contributes h1_pi + h2_0 = -4 at every g
    for g in (0.0, 0.5, 1.0, 2.7):
        a, _, _, d = special_mode_energies(g)
        assert a + d == pytest.approx(-4.0)


class TestSectorEnergies:
    def test_classical_point_degenerate(self):
        # at g = 0 both sub-ground states sit at -N
        for n in (4, 6, 10, 16):
            e_plus, e_minus = sgs_energies(MomentumGrid(n), 0.0)
            assert e_plus == pytest.approx(-n, abs=1e-12)
            assert e_minus == pytest.approx(-n, abs=1e-12)
            assert gap_delta(MomentumGrid(n), 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 20])
    def test_critical_gap_closed_form(self, n):
        # Delta(1) = tan(pi / 4N)
        assert gap_delta(MomentumGrid(n), 1.0) == pytest.approx(
            np.tan(np.pi / (4 * n)), rel=1e-12
        )

    def test_gap_positive_and_increasing_in_g(self):
        grid = MomentumGrid(10)
        gs = np.linspace(0.0, 3.0, 61)
        deltas = np.array([gap_delta(grid, g) for g in gs])
        assert np.all(deltas >= -1e-12)
        assert np.all(np.diff(deltas) > -1e-12)

    def test_gap_shrinks_with_system_size_in_ordered_phase(self):
        deltas = [gap_delta(MomentumGrid(n), 0.5) for n in (6, 10, 14, 18)]
        assert np.all(np.diff(deltas) < 0)

    def test_gap_even_in_field(self):
        # deep in the ordered phase too, where the gap comes from the Poisson series
        assert gap_delta(MomentumGrid(100), -0.5) == gap_delta(MomentumGrid(100), 0.5)
        assert gap_delta(MomentumGrid(16), -1.3) == gap_delta(MomentumGrid(16), 1.3)


class TestChordDiagnostic:
    def test_matches_gap_plus_one(self):
        # Delta_l(x) = Delta(x) + 1 pointwise, Delta from the two sectors' energy sums
        for n in (4, 8, 14):
            grid = MomentumGrid(n)
            for x in (0.0, 0.3, 1.0, 1.7, 2.9):
                e_plus, e_minus = sgs_energies(grid, x)
                assert delta_l(x, n) == pytest.approx(0.5 * (e_minus - e_plus) + 1.0, rel=1e-12)

    @pytest.mark.parametrize("n, g_low", [(100, 0.93), (400, 0.98)])
    def test_accurate_on_both_sides_of_the_window_edge(self, n, g_low):
        # the chord sum is used within 3/N of x = 1 and the Poisson series below it;
        # these fields straddle the window edge, 0.97 at N = 100 and 0.9925 at N = 400
        for g in np.linspace(g_low, 1.0, 21):
            assert chord_excess(g, n) == pytest.approx(_gap_precise(g, n), rel=1e-9, abs=0)

    @pytest.mark.parametrize("n", [4, 20, 100, 800, 2000])
    def test_double_precision_regimes_match_the_mpmath_sum(self, n):
        # the series from where the gap nears the double range (x^N = 1e-280) to just
        # below the window, at 1e-12
        for x in np.linspace(10.0 ** (-280.0 / n), 1.0 - 3.01 / n, 3 if n == 2000 else 5):
            assert chord_excess(x, n) == pytest.approx(_gap_precise(x, n), rel=1e-12, abs=0)
        # the window and the reflection above it, at 1e-9: here N chords of O(1) cancel
        # to a gap of O(1/N)
        if n >= 800:
            for x in (1.0 + d / n for d in (-10, -3, -1, 0, 1, 3, 10)):
                assert chord_excess(x, n) == pytest.approx(_gap_precise(x, n), rel=1e-9, abs=0)

    def test_unit_point_chord_value(self):
        # at x = 1 the chords telescope to tan(pi/4N) + 1
        for n in (4, 10):
            assert delta_l(1.0, n) == pytest.approx(np.tan(np.pi / (4 * n)) + 1.0)

    @pytest.mark.parametrize("n", [4, 100, 800])
    def test_continuous_through_the_unit_point(self, n):
        # the series would need ~1e17 terms one ulp from x = 1; the window's chord sum does not
        for x in (np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)):
            assert chord_excess(x, n) == pytest.approx(np.tan(np.pi / (4 * n)), rel=1e-11)

    def test_degenerate_point(self):
        assert delta_l(0.0, 8) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_l(-0.1, 8)
        with pytest.raises(ValueError):
            delta_l(1.0, 7)

    @pytest.mark.parametrize("x, n", [(0.1, 400), (0.3, 800)])
    def test_excess_below_double_range_raises(self, x, n):
        # the precise excess is below the smallest normal double: no silent 0 or denormal
        with pytest.raises(FloatingPointError, match="below the double range"):
            chord_excess(x, n)
        with pytest.raises(FloatingPointError, match="below the double range"):
            gap_delta(MomentumGrid(n), x)

    def test_chord_difference_rounds_to_one_below_double_range(self):
        assert delta_l(0.1, 400) == 1.0

    def test_zero_field_excess_is_exact_zero_at_any_size(self):
        assert chord_excess(0.0, 400) == 0.0
        assert gap_delta(MomentumGrid(800), 0.0) == 0.0
        assert delta_l(0.0, 400) == 1.0

    @pytest.mark.parametrize("x", [1e160, 1e200, 1.7e308])
    def test_large_field_is_finite(self, x):
        # x^2 is beyond the double range; by the reflection the excess is
        # x Delta(1/x) + x - 1, whose first term underflows here
        assert chord_excess(x, 8) == pytest.approx(x - 1.0, rel=1e-15)
        assert gap_delta(MomentumGrid(8), -x) == pytest.approx(x - 1.0, rel=1e-15)
        assert delta_l(x, 8) == pytest.approx(x, rel=1e-15)

    def test_underflow_decided_without_the_sum(self):
        # the series decides from its first term, before summing the others
        start = time.perf_counter()
        with pytest.raises(FloatingPointError, match="below the double range"):
            chord_excess(0.3, 800)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, True, "1"])
    def test_non_finite_field_raises(self, x):
        # no silent NaN from the chord sum; a bool or a str is no field either
        with pytest.raises(ValueError, match="finite"):
            chord_excess(x, 8)
        with pytest.raises(ValueError, match="finite"):
            delta_l(x, 8)
        with pytest.raises(ValueError, match="finite"):
            gap_delta(MomentumGrid(8), x)
        # every scalar field g is checked where it enters, and named, not passed on as x or as a NaN
        for field in (lambda g: gap_delta(MomentumGrid(8), g), lambda g: sgs_energies(MomentumGrid(8), g),
                      lambda g: dispersion(0.3, g), lambda g: bogoliubov_angle(0.3, g)):
            with pytest.raises(ValueError, match="^g must be finite and real"):
                field(x)

    def test_field_whose_energies_overflow_raises(self):
        # finite, but 2 (cos k + g) or a sum of mode energies would overflow: no silent -inf, no warning
        with np.errstate(all="raise"):
            for field in (lambda g: sgs_energies(MomentumGrid(6), g), lambda g: dispersion(0.3, g),
                          lambda g: bogoliubov_angle(0.3, g), lambda g: model.mode_coefficients(0.3, g)):
                with pytest.raises(ValueError, match=r"^g must satisfy 4 \(\|g\| \+ 1\) <= 2\^1023"):
                    field(1e308)
            # each mode energy is finite here, but the sum of 50 is not
            with pytest.raises(ValueError, match=r"^the sub-ground-state energies at g = 2e\+307 exceed"):
                sgs_energies(MomentumGrid(100), 2e307)
            assert np.isfinite(sgs_energies(MomentumGrid(6), 1e307)).all()
        # the largest field: lam + a and lam - a in the Bogoliubov angle stay finite, and its
        # smaller entry underflows, which is no error
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for g, k in ((2.0**1021, 0.3), (-(2.0**1021), 2.5)):
                assert np.isfinite(bogoliubov_angle(k, g)).all() and np.isfinite(dispersion(k, g))


def test_cat_norm_identity():
    # prod sin(k/2) over positive even momenta = 2^{-(N-1)/2}
    for n in (4, 8, 16, 32, 64):
        assert cat_norm_identity(n) == pytest.approx(
            (1.0 / np.sqrt(2.0)) ** (n - 1), rel=1e-12
        )


def test_cat_norm_below_the_double_range_raises():
    # 2^-1021.5 at N = 2044 is the last normal value; at N = 2046 it is subnormal, at 5000 zero
    assert cat_norm_identity(2044) == pytest.approx(2.0**-1021.5, rel=1e-12)
    for n in (2046, 5000):
        with pytest.raises(FloatingPointError, match=rf"^the cat-state norm at N = {n} is below the double range"):
            cat_norm_identity(n)


class TestXYZFactorization:
    def test_known_point(self):
        h_star, beta_star, overlap = xyz_factorization(-4.0, 0.0, 0.0, 6)
        assert h_star == pytest.approx(0.0)
        assert beta_star == pytest.approx(1.0)
        assert overlap == pytest.approx(0.0)

    def test_overlap_matches_product_state_construction(self):
        # brute-force the overlap of the two factorized product states
        jx, jy, jz, n = -2.0, -1.0, 0.5, 4
        h_star, beta_star, overlap = xyz_factorization(jx, jy, jz, n)
        root = np.sqrt(beta_star + 0j)
        up = np.array([0.0, 1.0])
        down = np.array([1.0, 0.0])
        plus_site = (down + root * up) / np.sqrt(1.0 + beta_star)
        minus_site = (down - root * up) / np.sqrt(1.0 + beta_star)
        psi_plus = np.array([1.0])
        psi_minus = np.array([1.0])
        for _ in range(n):
            psi_plus = np.kron(psi_plus, plus_site)
            psi_minus = np.kron(psi_minus, minus_site)
        assert np.vdot(psi_plus, psi_minus).real == pytest.approx(overlap, rel=1e-12)

    def test_field_formula(self):
        jx, jy, jz = -3.0, -0.5, 1.5
        h_star, beta_star, _ = xyz_factorization(jx, jy, jz, 8)
        assert h_star == pytest.approx(np.sqrt((jz - jx) * (jz - jy)))
        assert beta_star > 0.0
        expected = -(jx - jy) / (np.sqrt((jx - jy) ** 2 + 4 * h_star**2) - 2 * h_star)
        assert beta_star == pytest.approx(expected)

    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            xyz_factorization(0.0, -1.0, 1.0, 8)
        with pytest.raises(ValueError):
            xyz_factorization(-1.0, 0.5, 1.0, 8)

    @pytest.mark.parametrize("couplings", [(-np.inf, 0.0, 0.0), (-4.0, 0.0, np.inf),
                                           (-np.inf, -1.0, np.inf), (np.nan, 0.0, 0.0),
                                           (-4.0, 0.0, True), ("-4", 0.0, 0.0)])
    def test_non_finite_coupling_rejected(self, couplings):
        # an infinite coupling used to return nan or inf entries
        with pytest.raises(ValueError, match="finite"):
            xyz_factorization(*couplings, 8)

    @pytest.mark.parametrize("n", [0, -3, 8.0, True, "8"])
    def test_site_count_must_be_positive_integer(self, n):
        # n = 0 used to give overlap 1, and a negative n a power of the inverse ratio
        with pytest.raises(ValueError, match="n_sites"):
            xyz_factorization(-4.0, -1.0, 0.5, n)

    @pytest.mark.parametrize("couplings", [(-4.0, 0.0, 0.0), (-3.3, -1.2, 0.7), (-2.0, -1.0, 0.5)])
    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**-40, 2.0**40, 1e160, 1e200, 1e300],
                             ids=["2^-600", "2^-40", "2^40", "1e160", "1e200", "1e300"])
    def test_large_and_small_couplings_scale_the_field_only(self, couplings, scale):
        # (jx - jy)^2 used to overflow from |J| of about 1e154 and (jz - jx)(jz - jy) to
        # underflow below about 1e-162; beta* and the overlap depend on the ratios alone
        h_star, beta_star, overlap = xyz_factorization(*couplings, 8)
        h_scaled, beta_scaled, overlap_scaled = xyz_factorization(*(scale * j for j in couplings), 8)
        assert h_scaled == pytest.approx(scale * h_star, rel=1e-14)
        assert beta_scaled == pytest.approx(beta_star, rel=1e-14)
        assert overlap_scaled == pytest.approx(overlap, rel=1e-13)

    @pytest.mark.parametrize("power", [-900, -2, 2, 700])
    def test_power_of_two_couplings_are_exact(self, power):
        # the evaluation is in units of a power of two: scaling by an even one changes no bit
        h_star, beta_star, overlap = xyz_factorization(-3.3, -1.2, 0.7, 8)
        scale = 2.0**power
        assert xyz_factorization(-3.3 * scale, -1.2 * scale, 0.7 * scale, 8) == (
            h_star * scale, beta_star, overlap)

    @pytest.mark.parametrize("couplings", [(-1e150, -1e-200, 0.0), (-1.0, -1e-310, 0.0), (-1.0, 0.0, 1e-310),
                                           (-1e308, 0.0, 1e308)])
    def test_field_over_a_wide_coupling_range(self, couplings):
        # h* = sqrt((jz - jx)(jz - jy)) stays accurate where that product would leave the double range
        jx, jy, jz = couplings
        expected = float(mpmath.sqrt((mpmath.mpf(jz) - jx) * (mpmath.mpf(jz) - jy)))
        assert xyz_factorization(*couplings, 8)[0] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("couplings", [(-1.5e308, 0.0, 1.5e308), (-1.7e308, -1e308, 1.7e308)])
    def test_field_beyond_double_range_rejected(self, couplings):
        with pytest.raises(ValueError, match="double range"):
            xyz_factorization(*couplings, 8)

    def test_single_site_and_numpy_integer_accepted(self):
        _, beta_star, overlap = xyz_factorization(-2.0, -1.0, 0.5, 1)
        assert overlap == pytest.approx((1.0 - beta_star) / (1.0 + beta_star))
        assert xyz_factorization(-2.0, -1.0, 0.5, np.int64(4)) == xyz_factorization(-2.0, -1.0, 0.5, 4)
