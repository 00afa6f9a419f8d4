"""Tests for the per-mode propagators and the two drivers."""

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from isingring.dynamics import (
    NORM_TOL,
    DriverSpec,
    SystemState,
    evolve_kick_step,
    evolve_quench,
    init_ferro,
)
from isingring.model import MomentumGrid
from tests_support import (
    bcs_amplitudes,
    minus_modes,
    mode_hamiltonian_even,
    mode_unitary,
    plus_modes,
    stepped_reference,
)


def random_state(rng, grid, zero_v_mode=None):
    """Random normalized amplitudes; optionally one even mode with v = 0 exactly."""
    n = grid.n_sites
    plus = np.array(bcs_amplitudes(rng, n // 2))
    minus = np.array(bcs_amplitudes(rng, n // 2 - 1))
    if zero_v_mode is not None:
        plus[zero_v_mode] = (np.exp(0.4j), 0.0)
    amplitudes = np.concatenate((plus, minus))
    return SystemState(grid, amplitudes[:, 0], amplitudes[:, 1], 0.3, 0.0)


def max_deviation(state, amplitudes):
    ours = (state.u_plus, state.v_plus, state.u_minus, state.v_minus)
    return max(np.abs(a - b).max() for a, b in zip(ours, amplitudes))


def max_norm_drift(state):
    return max(
        np.abs(np.abs(state.u_plus) ** 2 + np.abs(state.v_plus) ** 2 - 1.0).max(),
        np.abs(np.abs(state.u_minus) ** 2 + np.abs(state.v_minus) ** 2 - 1.0).max(),
    )


class TestModeUnitary:
    def test_identity_at_zero_time(self):
        h = mode_hamiltonian_even(0.7, 1.3)
        np.testing.assert_allclose(mode_unitary(h, 0.0), np.eye(2), atol=1e-15)

    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            z = rng.standard_normal(4)
            h = np.array(
                [[z[0], z[1] + 1j * z[2]], [z[1] - 1j * z[2], z[3]]], dtype=complex
            )
            t = rng.uniform(-3.0, 3.0)
            np.testing.assert_allclose(mode_unitary(h, t), expm(-1j * h * t), atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = rng.uniform(-np.pi, np.pi)
            g = rng.uniform(0.0, 2.0)
            u = mode_unitary(mode_hamiltonian_even(k, g), rng.uniform(0.0, 10.0))
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-13)

    def test_diagonal_generator(self):
        u = mode_unitary(np.diag([2.0, -2.0]), np.pi / 2)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            mode_unitary(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)
        with pytest.raises(ValueError):
            mode_unitary(np.eye(3), 1.0)


class TestInitFerro:
    def test_amplitudes(self):
        grid = MomentumGrid(8)
        state = init_ferro(grid)
        kp = np.array([m.momentum for m in plus_modes(grid)])
        km = np.array([m.momentum for m in minus_modes(grid)])
        np.testing.assert_allclose(state.u_plus, np.sin(kp / 2))
        np.testing.assert_allclose(state.v_plus, np.cos(kp / 2))
        np.testing.assert_allclose(state.u_minus, np.sin(km / 2))
        np.testing.assert_allclose(state.v_minus, np.cos(km / 2))
        assert state.gamma == 0.0
        assert state.time == 0.0

    def test_normalization_guard(self):
        grid = MomentumGrid(6)
        state = init_ferro(grid)
        with pytest.raises(ValueError):
            SystemState(grid, 2.0 * state.u, state.v, 0.0, 0.0)
        with pytest.raises(ValueError):
            SystemState(grid, state.u[:-1], state.v[:-1], 0.0, 0.0)
        # v as a column of the right length: |u|^2 + |v|^2 would broadcast to a square
        with pytest.raises(ValueError, match="do not match the grid"):
            SystemState(grid, state.u, state.v[:, None], 0.0, 0.0)

    def test_nan_amplitude_rejected(self):
        grid = MomentumGrid(6)
        state = init_ferro(grid)
        u = state.u.copy()
        u[1] = np.nan
        with pytest.raises(ValueError, match="drift"):
            SystemState(grid, u, state.v, 0.0, 0.0)

    @pytest.mark.parametrize("field, value", [
        ("grid", 6), ("gamma", True), ("gamma", "0.5"), ("gamma", np.nan), ("gamma", np.inf),
        ("time", np.True_), ("time", "x"), ("time", np.nan), ("time", -np.inf),
        # amplitudes of the right shape but not complex128, the real ones normalized as init_ferro's
        ("u", np.array(["a"] * 5)), ("u", np.sin(MomentumGrid(6).momenta / 2.0)),
        ("v", np.cos(MomentumGrid(6).momenta / 2.0)), ("v", np.ones(5, dtype=np.int64)),
    ])
    def test_bad_field_rejected(self, field, value):
        state = init_ferro(MomentumGrid(6))
        fields = {"grid": state.grid, "u": state.u, "v": state.v, "gamma": 0.0, "time": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SystemState(**fields)

    def test_state_equals_only_itself(self):
        grid = MomentumGrid(6)
        state, twin = init_ferro(grid), init_ferro(grid)
        assert state == state and state != twin
        assert len({state, twin, state}) == 2

    def test_scalar_fields_stored_as_floats(self):
        state = init_ferro(MomentumGrid(6))
        other = SystemState(state.grid, state.u, state.v, np.float64(-0.5), 2)
        assert (other.gamma, other.time) == (-0.5, 2.0)
        assert type(other.gamma) is float and type(other.time) is float

    def test_sector_views_share_memory_in_momenta_order(self, monkeypatch):
        grid = MomentumGrid(10)
        h = len(grid.plus)

        def no_copy(*args, **kwargs):
            raise AssertionError("the propagation concatenates its amplitudes")

        # the propagation reads u and v whole, so it has nothing to concatenate
        monkeypatch.setattr(np, "concatenate", no_copy)
        states = [init_ferro(grid), evolve_quench(init_ferro(grid), 0.7, 1.3),
                  evolve_kick_step(init_ferro(grid), 0.5, 0.5, 0.02, 9)]
        monkeypatch.undo()
        for state in states:
            for whole, plus, minus in ((state.u, state.u_plus, state.u_minus),
                                       (state.v, state.v_plus, state.v_minus)):
                assert plus.base is whole and minus.base is whole
                assert np.shares_memory(plus, whole) and np.shares_memory(minus, whole)
                assert not plus.flags.writeable and not minus.flags.writeable
                np.testing.assert_array_equal(np.concatenate((plus, minus)), whole)
                assert len(plus) == h and len(minus) == len(grid.minus)
        # u = sin(k / 2) over grid.momenta: the even sector's positive modes, then the odd sector's
        np.testing.assert_array_equal(states[0].u, np.sin(grid.momenta / 2))
        np.testing.assert_allclose(states[0].u_plus, np.sin(np.pi * grid.plus / 20))
        np.testing.assert_allclose(states[0].u_minus, np.sin(np.pi * grid.minus / 20))


class TestDriverSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            DriverSpec("ramp")
        DriverSpec("quench", g_f=1.0)
        DriverSpec("kick", g=0.5, tau=0.3, epsilon=0.02)

    @pytest.mark.parametrize("kind, field, value", [
        ("quench", "g_f", np.nan),
        ("quench", "g_f", -np.inf),
        ("kick", "g", np.nan),
        ("kick", "tau", np.nan),
        ("kick", "epsilon", np.nan),
    ])
    def test_non_finite_drive_rejected(self, kind, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DriverSpec(kind, **{field: value})

    @pytest.mark.parametrize("kind, field, value", [
        ("quench", "g_f", "x"),
        ("quench", "g_f", None),
        ("kick", "tau", 10**400),
        ("kick", "epsilon", 1j),
        ("quench", "g_f", True),
        ("kick", "g", "1"),
        ("kick", "tau", False),
    ])
    def test_non_real_drive_rejected_naming_the_field(self, kind, field, value):
        # numpy's isfinite would raise TypeError on each; a bool is an int, but no field
        with pytest.raises(ValueError, match=f"{field} must be finite and real, got {value!r}"):
            DriverSpec(kind, **{field: value})

    def test_drivers_reject_a_non_finite_drive_themselves(self):
        # the drivers bypass DriverSpec and check their drive and dt themselves
        state = init_ferro(MomentumGrid(6))
        with pytest.raises(ValueError):
            evolve_quench(state, np.nan, 1.0)
        with pytest.raises(ValueError):
            evolve_kick_step(state, 0.5, np.nan, 0.02)
        with pytest.raises(ValueError):
            evolve_quench(state, 0.5, np.inf)

    @pytest.mark.parametrize("dt", [np.inf, -np.inf, np.nan, -0.1, True, "1"])
    def test_bad_dt_rejected_before_any_trigonometry(self, dt):
        # under errstate(all="raise") an inf reaching sin would raise FloatingPointError
        with pytest.raises(ValueError, match="dt must be finite and nonnegative"), \
                np.errstate(all="raise"):
            evolve_quench(init_ferro(MomentumGrid(6)), 0.5, dt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "0.5", True])
    @pytest.mark.parametrize("name, drive", [
        ("g_f", lambda state, x: evolve_quench(state, x, 1.0)),
        ("g", lambda state, x: evolve_kick_step(state, x, 0.3, 0.02)),
        ("tau", lambda state, x: evolve_kick_step(state, 0.5, x, 0.02)),
        ("epsilon", lambda state, x: evolve_kick_step(state, 0.5, 0.3, x)),
    ], ids=["g_f", "g", "tau", "epsilon"])
    def test_bad_drive_rejected_before_any_trigonometry(self, name, drive, bad):
        # checked as dt is: a NaN or inf never reaches sin, so no FloatingPointError either
        with pytest.raises(ValueError, match=f"^{name} must be finite and real"), np.errstate(all="raise"):
            drive(init_ferro(MomentumGrid(6)), bad)

    @pytest.mark.parametrize("kicks", [-1, 1.5, 2.0, "3", None, True, np.True_, 2**53 + 1])
    def test_bad_kick_count_rejected(self, kicks):
        # beyond 2^53 the count is not exact as the double that scales the Floquet angle
        with pytest.raises(ValueError, match="kicks must be a nonnegative integer"):
            evolve_kick_step(init_ferro(MomentumGrid(6)), 0.5, 0.3, 0.02, kicks)


class TestQuench:
    def test_zero_time_is_identity(self):
        state = init_ferro(MomentumGrid(8))
        out = evolve_quench(state, 1.3, 0.0)
        np.testing.assert_allclose(out.u_plus, state.u_plus)
        np.testing.assert_allclose(out.v_plus, state.v_plus)
        assert out.gamma == state.gamma

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve_quench(init_ferro(MomentumGrid(8)), 1.0, -0.1)

    def test_semigroup_composition(self):
        # one step of t1 + t2 equals two successive steps
        state = init_ferro(MomentumGrid(10))
        a = evolve_quench(state, 0.8, 1.7)
        b = evolve_quench(a, 0.8, 0.9)
        direct = evolve_quench(state, 0.8, 2.6)
        np.testing.assert_allclose(b.u_plus, direct.u_plus, atol=1e-12)
        np.testing.assert_allclose(b.v_plus, direct.v_plus, atol=1e-12)
        np.testing.assert_allclose(b.u_minus, direct.u_minus, atol=1e-12)
        np.testing.assert_allclose(b.v_minus, direct.v_minus, atol=1e-12)
        assert b.gamma == pytest.approx(direct.gamma)
        assert b.time == pytest.approx(direct.time)

    def test_zero_field_preserves_moduli(self):
        # at g_f = 0 the initial state is an eigenstate of every mode generator
        state = init_ferro(MomentumGrid(8))
        out = evolve_quench(state, 0.0, 2.3)
        np.testing.assert_allclose(np.abs(out.u_plus), np.abs(state.u_plus), atol=1e-12)
        np.testing.assert_allclose(np.abs(out.v_plus), np.abs(state.v_plus), atol=1e-12)

    def test_gamma_accumulates_minus_two_t(self):
        state = init_ferro(MomentumGrid(8))
        for g_f in (0.0, 0.5, 1.7):
            out = evolve_quench(state, g_f, 3.1)
            assert out.gamma == pytest.approx(-6.2)

    def test_norm_preserved_over_many_steps(self):
        state = init_ferro(MomentumGrid(12))
        for _ in range(500):
            state = evolve_quench(state, 1.1, 0.05)
        drift = np.abs(np.abs(state.u_plus) ** 2 + np.abs(state.v_plus) ** 2 - 1.0).max()
        assert drift < 1e-12


class TestKick:
    def test_gamma_accumulates_minus_two_tau_per_kick(self):
        state = init_ferro(MomentumGrid(8))
        for _ in range(3):
            state = evolve_kick_step(state, 0.4, 0.6, 0.05)
        assert state.gamma == pytest.approx(-3.6)

    def test_perfect_kick_at_zero_field_is_period_two(self):
        # epsilon = 0, g = 0: the pi-kick exchanges the two ferro states
        grid = MomentumGrid(8)
        state = init_ferro(grid)
        once = evolve_kick_step(state, 0.0, 0.5, 0.0)
        twice = evolve_kick_step(once, 0.0, 0.5, 0.0)
        # after two kicks every mode returns up to one global phase per sector
        ratio = twice.u_plus / state.u_plus
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-12)
        np.testing.assert_allclose(twice.v_plus / state.v_plus, ratio[0], atol=1e-12)
        assert abs(abs(ratio[0]) - 1.0) < 1e-12

    def test_long_run_norm_drift(self):
        state = init_ferro(MomentumGrid(10))
        for _ in range(10_000):
            state = evolve_kick_step(state, 0.3, 0.25, 0.02)
        assert max_norm_drift(state) < 1e-9

    def test_sectors_evolve_independently(self):
        grid = MomentumGrid(8)
        base = init_ferro(grid)
        # perturb only the odd sector; the even sector output must not change
        phase = np.exp(0.3j)
        other = SystemState(
            grid,
            np.concatenate((base.u_plus, phase * base.u_minus)),
            np.concatenate((base.v_plus, phase * base.v_minus)),
            base.gamma,
            base.time,
        )
        a = evolve_kick_step(base, 0.7, 0.4, 0.03)
        b = evolve_kick_step(other, 0.7, 0.4, 0.03)
        np.testing.assert_allclose(a.u_plus, b.u_plus, atol=1e-14)
        np.testing.assert_allclose(a.v_plus, b.v_plus, atol=1e-14)
        np.testing.assert_allclose(phase * a.u_minus, b.u_minus, atol=1e-14)


def stepping_tol(kicks):
    """1e-12, widened to five rounding units per kick beyond 900 kicks.

    Both the closed-form power and n single steps drift from the exact
    ``F^n`` by about n eps: against 40-digit arithmetic each is 0.5e-12 to
    5e-12 off at 10^4 kicks, so the two cannot agree to 1e-12 there.
    """
    return max(1e-12, 5 * kicks * np.finfo(float).eps)


def exact_kicks(state, g, tau, eps, kicks):
    """``(u_plus, v_plus, u_minus, v_minus)`` after ``kicks`` periods in 40-digit arithmetic."""
    with mpmath.workdps(40):
        phase = mpmath.exp(1j * mpmath.pi * (1 - mpmath.mpf(eps)))
        kick = mpmath.diag([phase, mpmath.conj(phase)])
        out = []
        for modes, u, v in ((plus_modes(state.grid), state.u_plus, state.v_plus),
                            (minus_modes(state.grid), state.u_minus, state.v_minus)):
            rows = []
            for mode, uk, vk in zip(modes, u, v):
                k = mpmath.mpf(mode.momentum)
                a, b = 2 * (mpmath.cos(k) + g), -2 * mpmath.sin(k)
                floquet = kick * mpmath.expm(-1j * tau * mpmath.matrix([[a, b], [b, -a]]))
                rows.append([complex(x) for x in floquet**kicks * mpmath.matrix([uk, vk])])
            out += [np.array(rows)[:, 0], np.array(rows)[:, 1]]
        return out


class TestAgainstPerModeReference:
    """The closed-form array drivers against n scalar per-mode steps."""

    @pytest.mark.parametrize("kicks", [0, 1, 7, 500, 10_000])
    def test_kick_jump_matches_single_steps(self, kicks):
        g, tau, eps = 0.3, 0.25, 0.02
        state = random_state(np.random.default_rng(kicks), MomentumGrid(10))
        jumped = evolve_kick_step(state, g, tau, eps, kicks)
        reference = stepped_reference(state, g, tau, np.pi * (1.0 - eps), kicks)
        assert max_deviation(jumped, reference) < stepping_tol(kicks)
        assert jumped.gamma == pytest.approx(state.gamma - 2.0 * tau * kicks, abs=1e-12)
        assert jumped.time == pytest.approx(tau * kicks, abs=1e-12)

    def test_numpy_integer_kick_count(self):
        state = init_ferro(MomentumGrid(8))
        a = evolve_kick_step(state, 0.3, 0.25, 0.02, np.int64(9))
        b = evolve_kick_step(state, 0.3, 0.25, 0.02, 9)
        np.testing.assert_array_equal(a.u_plus, b.u_plus)
        np.testing.assert_array_equal(a.v_minus, b.v_minus)

    @pytest.mark.parametrize("g, tau, eps", [
        (0.0, np.pi / 2, 0.0),  # F = +-I up to rounding
        (0.0, 0.5, 0.0),        # perfect kick at zero field, where v crosses 0
        (0.5, 0.0, 1.0),        # F = I exactly: sin(theta) = 0, no division
        (0.5, 1e-9, 1.0),       # theta ~ 3e-9, where arccos(Re F00) loses half the digits
    ])
    @pytest.mark.parametrize("kicks", [1, 7, 500, 10_000])
    def test_degenerate_drives(self, g, tau, eps, kicks):
        state = random_state(np.random.default_rng(5), MomentumGrid(8), zero_v_mode=1)
        with np.errstate(all="raise"):
            jumped = evolve_kick_step(state, g, tau, eps, kicks)
        reference = stepped_reference(state, g, tau, np.pi * (1.0 - eps), kicks)
        assert max_deviation(jumped, reference) < stepping_tol(kicks)
        assert max_norm_drift(jumped) < 1e-13

    def test_identity_floquet_leaves_state_unchanged(self):
        state = random_state(np.random.default_rng(6), MomentumGrid(8))
        for kicks in (1, 2, 10**6):
            out = evolve_kick_step(state, 0.5, 0.0, 1.0, kicks)
            np.testing.assert_array_equal(out.u_plus, state.u_plus)
            np.testing.assert_array_equal(out.v_minus, state.v_minus)

    def test_quench_matches_reference_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            grid = MomentumGrid(2 * int(rng.integers(2, 16)))
            g, t = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 60.0)
            state = random_state(rng, grid)
            out = evolve_quench(state, g, t)
            assert max_deviation(out, stepped_reference(state, g, t)) < 1e-12

    @pytest.mark.parametrize("kicks", [10_000, 10**6])
    def test_kick_jump_matches_exact_power(self, kicks):
        g, tau, eps = 0.5, 0.5, 0.02
        state = random_state(np.random.default_rng(8), MomentumGrid(8))
        jumped = evolve_kick_step(state, g, tau, eps, kicks)
        assert max_deviation(jumped, exact_kicks(state, g, tau, eps, kicks)) < stepping_tol(kicks)

    def test_million_kick_jump_keeps_norms(self):
        state = init_ferro(MomentumGrid(40))
        out = evolve_kick_step(state, 0.5, 0.5, 0.02, 10**6)
        assert max_norm_drift(out) < NORM_TOL
        assert out.time == pytest.approx(0.5e6)
