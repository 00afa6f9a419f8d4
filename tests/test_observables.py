"""Tests for the Pfaffian-based magnetization against the dense oracle."""

import numpy as np
import pytest

from isingring import observables, oracle_ed
from isingring.dynamics import DriverSpec, SystemState, evolve_kick_step, evolve_quench, init_ferro
from isingring.model import MomentumGrid
from isingring.observables import (
    MagnetizationSample,
    _c1_words,
    expectation_c1,
    magnetization,
    run_series,
)
from tests_support import (
    bcs_amplitudes,
    c1_words_dense,
    dense_contractions,
    dense_expectation,
    expectation_c1_reference,
)


class TestInitialState:
    @pytest.mark.parametrize("n", [4, 6, 8, 12, 20])
    def test_c1_is_one_half(self, n):
        c1 = expectation_c1(init_ferro(MomentumGrid(n)))
        assert c1 == pytest.approx(0.5, abs=1e-12)

    def test_full_polarization(self):
        sample = magnetization(init_ferro(MomentumGrid(10)))
        assert sample.mx == pytest.approx(10.0, abs=1e-10)
        assert sample.my == pytest.approx(0.0, abs=1e-10)
        assert sample.mz == pytest.approx(0.0, abs=1e-10)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("g_f", [0.5, 1.0, 2.0])
    def test_quench_trajectory(self, g_f):
        n = 8
        times = [0.0, 0.3, 0.9, 1.7, 2.6]
        exact = oracle_ed.quench_trajectory(n, g_f, times)
        samples = run_series(DriverSpec("quench", g_f=g_f), MomentumGrid(n), times)
        engine = np.array([[s.mx, s.my, s.mz] for s in samples])
        assert np.abs(engine - exact).max() < 1e-8

    def test_kick_trajectory(self):
        n = 6
        g, tau, eps, n_kicks = 0.4, 0.5, 0.03, 15
        exact = oracle_ed.kick_trajectory(n, g, tau, eps, n_kicks)
        samples = run_series(
            DriverSpec("kick", g=g, tau=tau, epsilon=eps),
            MomentumGrid(n),
            range(1, n_kicks + 1),
        )
        engine = np.array([[s.mx, s.my, s.mz] for s in samples])
        assert np.abs(engine - exact).max() < 1e-8

    def test_long_kick_run_sampled_sparsely(self):
        # each sample is one Floquet jump from the previous one, up to 2000 kicks
        n = 8
        g, tau, eps, n_kicks = 0.4, 0.5, 0.03, 2000
        exact = oracle_ed.kick_trajectory(n, g, tau, eps, n_kicks)
        schedule = [1, 2, 37, 500, 501, 1234, 1999, 2000]
        driver = DriverSpec("kick", g=g, tau=tau, epsilon=eps)
        samples = run_series(driver, MomentumGrid(n), schedule)
        engine = np.array([[s.mx, s.my, s.mz] for s in samples])
        assert np.abs(engine - exact[np.array(schedule) - 1]).max() < 1e-8

    def test_longitudinal_vector_components_match_ed_separately(self):
        # mx and my individually, not just in combination
        n = 6
        state = evolve_quench(init_ferro(MomentumGrid(n)), 1.3, 0.8)
        sample = magnetization(state)
        h = oracle_ed.build_hamiltonian(n, 1.3)
        psi = oracle_ed.evolve_exact(oracle_ed.ferro_state(n), h, 0.8)
        assert sample.mx == pytest.approx(n * oracle_ed.measure(psi, "x", 1), abs=1e-10)
        assert sample.my == pytest.approx(n * oracle_ed.measure(psi, "y", 1), abs=1e-10)
        mz_exact = sum(oracle_ed.measure(psi, "z", j) for j in range(1, n + 1))
        assert sample.mz == pytest.approx(mz_exact, abs=1e-10)


class TestInternalConsistency:
    def test_adjoint_word_gives_conjugate_matrix_element(self):
        # evaluating the daggered words reproduces conj(<c_1>)
        state = evolve_quench(init_ferro(MomentumGrid(8)), 0.7, 1.1)
        direct = expectation_c1(state)
        adjoint = 0.0 + 0.0j
        for coeff, word in c1_words_dense(state):
            adjoint += np.conj(coeff) * dense_expectation(word.dagger())
        assert adjoint == pytest.approx(np.conj(direct), abs=1e-12)

    def test_zero_field_quench_is_stationary(self):
        grid = MomentumGrid(10)
        for t in (0.7, 2.3, 6.1):
            sample = magnetization(evolve_quench(init_ferro(grid), 0.0, t))
            assert sample.mx == pytest.approx(10.0, abs=1e-10)
            assert sample.my == pytest.approx(0.0, abs=1e-10)

    def test_magnetization_bounds(self):
        grid = MomentumGrid(12)
        state = init_ferro(grid)
        for _ in range(20):
            state = evolve_kick_step(state, 0.6, 0.35, 0.05)
            s = magnetization(state)
            assert abs(s.mx) <= 12.0 + 1e-9
            assert abs(s.my) <= 12.0 + 1e-9
            assert abs(s.mz) <= 12.0 + 1e-9

    def test_term_signs_are_canonical(self):
        assert observables._TERM_SIGNS == (1.0, 1.0, 1.0)

    def test_sign_flip_breaks_oracle_agreement(self, monkeypatch):
        # negative control: corrupting one term must be caught by the oracle
        n = 6
        times = [0.4, 1.1]
        exact = oracle_ed.quench_trajectory(n, 0.8, times)
        monkeypatch.setattr(observables, "_TERM_SIGNS", (1.0, -1.0, 1.0))
        samples = run_series(DriverSpec("quench", g_f=0.8), MomentumGrid(n), times)
        engine = np.array([[s.mx, s.my, s.mz] for s in samples])
        assert np.abs(engine - exact).max() > 1e-3


def _random_state(n, seed):
    """A random normalized state with one exact v = 0 mode and one |u| < 1e-12 mode."""
    grid = MomentumGrid(n)
    rng = np.random.default_rng(seed)
    u_p, v_p = np.array(bcs_amplitudes(rng, n // 2)).T
    u_m, v_m = np.array(bcs_amplitudes(rng, n // 2 - 1)).T
    u_p[0], v_p[0] = np.exp(0.3j), 0.0
    u_m[-1], v_m[-1] = 1e-14, np.sqrt(1.0 - 1e-28) * np.exp(-1.1j)
    return SystemState(grid, u_p, v_p, u_m, v_m, gamma=rng.uniform(-5, 5), time=0.0)


def _u_zero_state(n, seed):
    """A random normalized state with u = 0 exactly in one mode of each sector."""
    state = _random_state(n, seed)
    u_p, v_p, u_m, v_m = (a.copy() for a in (state.u_plus, state.v_plus, state.u_minus, state.v_minus))
    u_p[-1], v_p[-1] = 0.0, np.exp(0.4j)
    u_m[0], v_m[0] = 0.0, np.exp(-0.9j)
    return SystemState(state.grid, u_p, v_p, u_m, v_m, gamma=state.gamma, time=0.0)


def _sample_states(n):
    """Initial, quenched, kicked, and random states (with v = 0, |u| = 1e-14 and u = 0 modes)."""
    grid = MomentumGrid(n)
    kicked = init_ferro(grid)
    for _ in range(7):
        kicked = evolve_kick_step(kicked, 0.6, 0.35, 0.05)
    return [
        init_ferro(grid),
        evolve_quench(init_ferro(grid), 0.5, 3.7),
        kicked,
        _random_state(n, seed=n),
        _random_state(n, seed=n + 1000),
        _u_zero_state(n, seed=n + 2000),
    ]


SIGN_PATTERNS = [(1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)]


class TestAgainstPerWordReference:
    """The two-word evaluation against the N-word three-term decomposition."""

    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    @pytest.mark.parametrize("n", [4, 6, 8, 12, 20, 30])
    def test_matches_reference(self, n, signs, monkeypatch):
        monkeypatch.setattr(observables, "_TERM_SIGNS", signs)
        for state in _sample_states(n):
            reference = expectation_c1_reference(state, signs)
            assert abs(expectation_c1(state) - reference) < 1e-12

    def test_two_words_of_length_two_n(self):
        state = evolve_quench(init_ferro(MomentumGrid(10)), 0.7, 1.1)
        assert [len(word) for _, word in _c1_words(state)] == [20, 20]


class TestAgainstDenseWords:
    """The gathered contraction matrices against ``ann K cre^T`` of the dense words."""

    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    @pytest.mark.parametrize("n", [4, 6, 10, 20, 48, 100, 200])
    def test_matrices_match_dense_reference(self, n, signs, monkeypatch):
        monkeypatch.setattr(observables, "_TERM_SIGNS", signs)
        for state in _sample_states(n):
            engine, dense = _c1_words(state), c1_words_dense(state)
            for (coeff, matrix), (dense_coeff, word) in zip(engine, dense):
                assert coeff == dense_coeff
                expected = np.triu(dense_contractions(word), 1)
                deviation = np.abs(np.triu(matrix, 1) - expected).max()
                assert deviation <= 1e-15 * np.abs(expected).max()


class TestRunSeries:
    def test_quench_samples_carry_times(self):
        times = [0.0, 0.5, 1.25]
        samples = run_series(DriverSpec("quench", g_f=0.9), MomentumGrid(6), times)
        assert [s.time for s in samples] == times

    def test_kick_samples_carry_counts(self):
        samples = run_series(
            DriverSpec("kick", g=0.3, tau=0.4, epsilon=0.02), MomentumGrid(6), [1, 3, 4]
        )
        assert [s.time for s in samples] == [1.0, 3.0, 4.0]

    def test_sparse_kick_schedule_matches_dense(self):
        driver = DriverSpec("kick", g=0.3, tau=0.4, epsilon=0.02)
        dense = run_series(driver, MomentumGrid(6), range(1, 6))
        sparse = run_series(driver, MomentumGrid(6), [2, 5])
        assert sparse[0].mx == pytest.approx(dense[1].mx, abs=1e-12)
        assert sparse[1].mx == pytest.approx(dense[4].mx, abs=1e-12)

    def test_threads_do_not_change_results(self):
        times = np.linspace(0.1, 2.0, 7)
        serial = run_series(DriverSpec("quench", g_f=1.1), MomentumGrid(8), times)
        parallel = run_series(DriverSpec("quench", g_f=1.1), MomentumGrid(8), times, threads=4)
        for a, b in zip(serial, parallel):
            assert a.mx == b.mx and a.my == b.my and a.mz == b.mz

    def test_schedule_validation(self):
        driver = DriverSpec("quench", g_f=1.0)
        with pytest.raises(ValueError):
            run_series(driver, MomentumGrid(6), [0.5, 0.5])
        with pytest.raises(ValueError):
            run_series(driver, MomentumGrid(6), [-1.0, 0.5])
        with pytest.raises(ValueError):
            run_series(DriverSpec("kick", g=0.1, tau=0.2), MomentumGrid(6), [1.5, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_time_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            run_series(DriverSpec("quench", g_f=1.0), MomentumGrid(6), [0.5, bad])

    def test_non_finite_kick_count_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            run_series(DriverSpec("kick", g=0.1, tau=0.2), MomentumGrid(6), [1, float("inf")])

    def test_empty_schedule(self):
        assert run_series(DriverSpec("quench", g_f=1.0), MomentumGrid(6), []) == []


def test_sample_dataclass_fields():
    s = MagnetizationSample(time=1.0, mx=2.0, my=3.0, mz=4.0)
    assert (s.time, s.mx, s.my, s.mz) == (1.0, 2.0, 3.0, 4.0)
