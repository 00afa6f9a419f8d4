"""Tests for the per-mode propagators and the two drivers."""

import numpy as np
import pytest
from scipy.linalg import expm

from isingring.dynamics import (
    DriverSpec,
    SystemState,
    evolve_kick_step,
    evolve_quench,
    init_ferro,
    mode_unitary,
)
from isingring.model import MomentumGrid, mode_hamiltonian_even


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
        kp = np.array([m.momentum for m in grid.positive_plus()])
        km = np.array([m.momentum for m in grid.positive_minus()])
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
            SystemState(
                grid,
                2.0 * state.u_plus,
                state.v_plus,
                state.u_minus,
                state.v_minus,
                0.0,
                0.0,
            )
        with pytest.raises(ValueError):
            SystemState(
                grid,
                state.u_plus[:-1],
                state.v_plus[:-1],
                state.u_minus,
                state.v_minus,
                0.0,
                0.0,
            )

    def test_nan_amplitude_rejected(self):
        grid = MomentumGrid(6)
        state = init_ferro(grid)
        u_plus = state.u_plus.copy()
        u_plus[1] = np.nan
        with pytest.raises(ValueError, match="drift"):
            SystemState(grid, u_plus, state.v_plus, state.u_minus, state.v_minus, 0.0, 0.0)


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

    def test_non_finite_field_caught_by_state_when_driving_directly(self):
        # the drivers bypass DriverSpec; the NaN-safe norm check stops them
        state = init_ferro(MomentumGrid(6))
        with pytest.raises(ValueError):
            evolve_quench(state, np.nan, 1.0)
        with pytest.raises(ValueError):
            evolve_kick_step(state, 0.5, np.nan, 0.02)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            evolve_quench(state, 0.5, np.inf)


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
        drift = max(
            np.abs(np.abs(state.u_plus) ** 2 + np.abs(state.v_plus) ** 2 - 1.0).max(),
            np.abs(np.abs(state.u_minus) ** 2 + np.abs(state.v_minus) ** 2 - 1.0).max(),
        )
        assert drift < 1e-9

    def test_sectors_evolve_independently(self):
        grid = MomentumGrid(8)
        base = init_ferro(grid)
        # perturb only the odd sector; the even sector output must not change
        phase = np.exp(0.3j)
        other = SystemState(
            grid,
            base.u_plus,
            base.v_plus,
            phase * base.u_minus,
            phase * base.v_minus,
            base.gamma,
            base.time,
        )
        a = evolve_kick_step(base, 0.7, 0.4, 0.03)
        b = evolve_kick_step(other, 0.7, 0.4, 0.03)
        np.testing.assert_allclose(a.u_plus, b.u_plus, atol=1e-14)
        np.testing.assert_allclose(a.v_plus, b.v_plus, atol=1e-14)
        np.testing.assert_allclose(phase * a.u_minus, b.u_minus, atol=1e-14)
