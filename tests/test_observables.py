"""Tests for the Pfaffian-based magnetization against the dense oracle."""

import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isingring.wick
from isingring import observables, oracle_ed
from isingring.dynamics import DriverSpec, SystemState, evolve_kick_step, evolve_quench, init_ferro
from isingring.model import MomentumGrid
from isingring.observables import (
    MagnetizationSample,
    expectation_c1,
    magnetization,
    run_series,
)
from isingring.pfaffian import SkewMatrix, Workspace, pfaffian
from isingring.wick import contractions
from tests_support import (
    bcs_amplitudes,
    build_hamiltonian,
    c1_bordered,
    c1_bordered_reference,
    c1_words_dense,
    dense_expectation,
    dense_skew,
    evolve_exact,
    expectation_c1_reference,
    ferro_state,
    measure,
    pair_rows_pivot_reference,
    pfaffian_reference,
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
        # each sample is one Floquet power from the initial state, up to 2000 kicks
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
        h = build_hamiltonian(n, 1.3)
        psi = evolve_exact(ferro_state(n), h, 0.8)
        assert sample.mx == pytest.approx(n * measure(psi, "x", 1), abs=1e-10)
        assert sample.my == pytest.approx(n * measure(psi, "y", 1), abs=1e-10)
        mz_exact = sum(measure(psi, "z", j) for j in range(1, n + 1))
        assert sample.mz == pytest.approx(mz_exact, abs=1e-10)


SIZES = st.sampled_from([4, 6, 8, 10, 12])
FIELDS = st.floats(min_value=0.0, max_value=3.0)


def engine_rows(driver, n, schedule):
    samples = run_series(driver, MomentumGrid(n), schedule)
    return np.array([[s.mx, s.my, s.mz] for s in samples])


class TestRandomAgainstDenseOracle:
    """Engine against ED on random drives; totals to 1e-8, so per site to 1e-8 / N."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=SIZES, g_f=FIELDS,
           times=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=4,
                          unique=True).map(sorted))
    @example(n=12, g_f=0.0, times=[0.0, 1e4])
    def test_quench(self, n, g_f, times):
        exact = oracle_ed.quench_trajectory(n, g_f, times)
        assert np.abs(engine_rows(DriverSpec("quench", g_f=g_f), n, times) - exact).max() < 1e-8

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=SIZES, g=FIELDS, tau=st.floats(min_value=0.01, max_value=2.0),
           epsilon=st.floats(min_value=0.0, max_value=0.5),
           kicks=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4,
                          unique=True).map(sorted))
    @example(n=12, g=0.0, tau=0.5, epsilon=0.0, kicks=[1, 2, 299, 300])
    @example(n=10, g=1.2, tau=0.7, epsilon=0.0, kicks=[3, 150])
    @example(n=8, g=0.0, tau=1.1, epsilon=0.2, kicks=[1, 77])
    def test_kicks(self, n, g, tau, epsilon, kicks):
        exact = oracle_ed.kick_trajectory(n, g, tau, epsilon, kicks[-1])
        engine = engine_rows(DriverSpec("kick", g=g, tau=tau, epsilon=epsilon), n, kicks)
        assert np.abs(engine - exact[np.array(kicks) - 1]).max() < 1e-8


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
    return SystemState(grid, np.concatenate((u_p, u_m)), np.concatenate((v_p, v_m)),
                       gamma=rng.uniform(-5, 5), time=0.0)


def _u_zero_state(n, seed):
    """A random normalized state with u = 0 exactly in one mode of each sector."""
    state = _random_state(n, seed)
    u_p, v_p, u_m, v_m = (a.copy() for a in (state.u_plus, state.v_plus, state.u_minus, state.v_minus))
    u_p[-1], v_p[-1] = 0.0, np.exp(0.4j)
    u_m[0], v_m[0] = 0.0, np.exp(-0.9j)
    return SystemState(state.grid, np.concatenate((u_p, u_m)), np.concatenate((v_p, v_m)),
                       gamma=state.gamma, time=0.0)


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


def _pair_state(n, magnitudes, seed):
    """A state whose BCS pairs cycle through the ``|u|`` of ``magnitudes``, with random phases."""
    rng = np.random.default_rng(seed)

    def sector(count):
        u = np.resize(np.asarray(magnitudes, dtype=float), count)
        phases = np.exp(2j * np.pi * rng.random((2, count)))
        return u * phases[0], np.sqrt(1.0 - u**2) * phases[1]

    (u_p, v_p), (u_m, v_m) = sector(n // 2), sector(n // 2 - 1)
    return SystemState(MomentumGrid(n), np.concatenate((u_p, u_m)), np.concatenate((v_p, v_m)),
                       gamma=rng.uniform(-5, 5), time=0.0)


#: |u| of every pair: each bra pair passes the pivot test (|u| > PAIR_RTOL), none does, or a mix
#: with an exact u = 0; a bra pair's rows hold an entry of magnitude 1, so |u| decides
PAIR_MAGNITUDES = {"accepted": (0.02,), "rejected": (0.005,), "mixed": (0.3, 0.0, 0.005, 0.02, 0.9)}


def _pair_states(n):
    return [_pair_state(n, magnitudes, seed=n + i) for i, magnitudes in enumerate(PAIR_MAGNITUDES.values())]


SIGN_PATTERNS = [(1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)]


class TestAgainstPerWordReference:
    """The bordered evaluation against the N-word three-term decomposition."""

    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    @pytest.mark.parametrize("n", [4, 6, 8, 12, 20, 30])
    def test_matches_reference(self, n, signs, monkeypatch):
        monkeypatch.setattr(observables, "_TERM_SIGNS", signs)
        for state in _sample_states(n):
            reference = expectation_c1_reference(state, signs)
            assert abs(expectation_c1(state) - reference) < 1e-12

    def test_two_words_of_length_two_n(self):
        # one bordered word: 2N - 1 shared factors and a border column for each word
        state = evolve_quench(init_ferro(MomentumGrid(10)), 0.7, 1.1)
        operand = c1_bordered_reference(state)
        assert operand.entries.shape == (21, 21) and operand.border == 2


class TestAgainstDenseWords:
    """The full bordered matrix against the skew matrices of the dense words.

    Word 1 without its slot N, the ``c_1`` factor, is the shared block, and
    so is the adjoint of word 2 without its slot N, ``c_1^dag``.  Slot N's
    column of each is a border column.
    """

    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    @pytest.mark.parametrize("n", [4, 6, 10, 20, 48, 100, 200])
    def test_matrices_match_dense_reference(self, n, signs, monkeypatch):
        monkeypatch.setattr(observables, "_TERM_SIGNS", signs)
        shared = np.r_[:n, n + 1:2 * n]
        for state in _sample_states(n):
            bordered = c1_bordered_reference(state).entries
            (_, first), (_, second) = c1_words_dense(state)
            for column, word in zip((2 * n - 1, 2 * n), (first, second.dagger())):
                engine = bordered[:2 * n - 1][:, np.r_[:2 * n - 1, column]]
                expected = dense_skew(word)[shared][:, np.r_[shared, n]]
                assert np.abs(engine - expected).max() <= 1e-15 * np.abs(expected).max()


class TestOperand:
    """The engine's Pfaffian operand, which skips the antisymmetry scan of arbitrary input."""

    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    @pytest.mark.parametrize("n", [4, 10, 24, 26, 100])
    def test_exactly_antisymmetric_with_the_full_scale(self, n, signs, monkeypatch):
        # so the PIVOT_RTOL threshold is the one the scan of the full matrix would give
        monkeypatch.setattr(observables, "_TERM_SIGNS", signs)
        for state in _sample_states(n) + _pair_states(n):
            operand = c1_bordered(state)
            m = operand.entries
            assert np.array_equal(m, -m.T)
            assert operand.scale == np.abs(m).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "block", ["bra pair", "ket pair", "cross", "c^dag_0 border", "c_1 border", "c_1^dag border"],
    )
    def test_non_finite_entry_raises(self, block, bad, monkeypatch):
        state = evolve_quench(init_ferro(MomentumGrid(10)), 0.5, 1.3)
        if block == "bra pair":
            # a sector's u enters only the contraction of its BCS pair; u_plus and u_minus are
            # read-only views of u, which holds the even sector's 5 modes and then the odd sector's
            state.u[1] = bad
        elif block == "ket pair":
            state.u[5 + 1] = bad
        elif block == "cross":
            def poisoned(*args):
                cross = contractions(*args)
                cross[3, 2] = bad
                calls.append(cross.shape)
                return cross

            calls = []
            monkeypatch.setattr(observables, "contractions", poisoned)
        else:
            signs = [1.0, 1.0, 1.0]
            signs[["c^dag_0 border", "c_1 border", "c_1^dag border"].index(block)] = bad
            monkeypatch.setattr(observables, "_TERM_SIGNS", tuple(signs))
        # inf times a zero coefficient warns on the way; the result must be an error, not 0 or NaN
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            expectation_c1(state)
        if block == "cross":
            # the operand's cross block is the one gather, the N bra rows against the N - 1 ket parts
            assert calls == [(10, 9)]


class TestReducedOperand:
    """The Schur complement of the accepted bra pairs against the full bordered matrix."""

    @staticmethod
    def assert_matches_reference_pfaffians(state):
        n = state.grid.n_sites
        full = c1_bordered_reference(state).entries
        references = [pfaffian_reference(full[np.ix_(even, even)])
                      for even in (np.r_[:2 * n - 1, 2 * n - 1 + i] for i in range(2))]
        # a word that vanishes (some do at N <= 6) is rounding noise in either path,
        # so below 1 % of the larger word the bound is 1e-14 of the larger word
        floor = 1e-2 * max(map(abs, references))
        for value, reference in zip(pfaffian(c1_bordered(state), border=2), references):
            assert abs(value - reference) <= 1e-12 * max(abs(reference), floor)

    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    @pytest.mark.parametrize("n", [4, 6, 10, 24, 26, 48, 100])
    def test_matches_reference_pfaffians(self, n, signs, monkeypatch):
        monkeypatch.setattr(observables, "_TERM_SIGNS", signs)
        for state in _sample_states(n) + _pair_states(n):
            self.assert_matches_reference_pfaffians(state)

    @pytest.mark.parametrize("n", [300, 400])
    def test_matches_reference_pfaffians_with_rejected_pairs_at_large_n(self, n):
        # here X = C2^T diag(1 / alpha) C1, summed over every pair with a rejected pair's C2
        # zeroed, rounds differently from a sum over the accepted pairs alone; 1 to 16 rejected
        for g_f, t in ((1.5, 2.5), (1.0, 13.0)):
            state = evolve_quench(init_ferro(MomentumGrid(n)), g_f, t)
            assert len(c1_bordered(state)) > n + 1
            self.assert_matches_reference_pfaffians(state)

    @pytest.mark.parametrize("n", [4, 10, 48])
    @pytest.mark.parametrize("kind", PAIR_MAGNITUDES)
    def test_rejected_pairs_stay_in_the_operand(self, n, kind):
        # N + 1 rows and columns, and two more per rejected bra pair (|u| < PAIR_RTOL)
        magnitudes = PAIR_MAGNITUDES[kind]
        rejected = sum(u < observables.PAIR_RTOL for u in np.resize(magnitudes, n // 2))
        assert len(c1_bordered(_pair_state(n, magnitudes, seed=1))) == n + 1 + 2 * rejected

    def test_quench_accepts_most_pairs(self):
        n = 100
        for t in (0.5, 3.7, 17.0, 60.0):
            rejected = (len(c1_bordered(evolve_quench(init_ferro(MomentumGrid(n)), 0.5, t))) - n - 1) // 2
            assert rejected <= 0.1 * n // 2

    def test_pair_product_far_below_the_double_range(self):
        # 400 bra pairs of |u| = 0.02: their product is about 1e-680
        n = 800
        state = _pair_state(n, (0.02,), seed=8)
        assert np.sum(np.log10(np.abs(state.u_plus))) == pytest.approx(-679.6, abs=0.1)
        reference = pfaffian(c1_bordered_reference(state), border=2)
        with np.errstate(all="raise"):
            values = pfaffian(c1_bordered(state), border=2)
        for value, expected in zip(values, reference):
            assert abs(value - expected) <= 1e-12 * abs(expected)


class TestPivotRule:
    """Each bra pair is decided once, by ``|u_k| > PAIR_RTOL``: threshold pivoting on its rows."""

    @staticmethod
    def states(n):
        # besides the sample and pair states: v = 0 (|u| = 1) and u = 0 pairs, and pairs within
        # 1e-9 of the threshold on either side
        rtol = observables.PAIR_RTOL
        edge = _pair_state(n, (1.0, 0.0, rtol * (1.0 - 1e-9), rtol * (1.0 + 1e-9), 0.5), seed=n + 7)
        return _sample_states(n) + _pair_states(n) + [edge]

    @pytest.mark.parametrize("n", [4, 6, 10, 24, 26, 48, 100])
    def test_decides_as_the_row_magnitude_rule(self, n):
        for state in self.states(n):
            accepted, largest = pair_rows_pivot_reference(state)
            # a normalized pair's largest entry is its first row's border entry, of magnitude 1
            np.testing.assert_allclose(largest, 1.0, rtol=0, atol=4 * np.finfo(float).eps)
            np.testing.assert_array_equal(accepted, np.abs(state.u_plus) > observables.PAIR_RTOL)
            assert len(c1_bordered(state)) == n + 1 + 2 * np.count_nonzero(~accepted)


class TestAgainstUnblockedDenseWords:
    """``expectation_c1`` against the unblocked reference kernel on the two dense words."""

    @pytest.mark.parametrize("n", [24, 26])
    def test_matches_reference_pfaffians(self, n):
        # two dense words of 2N = 48 and 52 factors, through the unblocked kernel
        for state in _sample_states(n):
            reference = sum(coeff * pfaffian_reference(dense_skew(word)) for coeff, word in c1_words_dense(state))
            assert abs(expectation_c1(state) - reference) <= 1e-12 * abs(reference)


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

    @pytest.mark.parametrize("n_sites,kicks", [(40, 500), (8, 2000), (100, 10**4)])
    def test_kick_sample_does_not_depend_on_schedule(self, n_sites, kicks):
        # every sample is one Floquet power from the initial state
        driver = DriverSpec("kick", g=0.5, tau=0.5, epsilon=0.02)
        alone = run_series(driver, MomentumGrid(n_sites), [kicks])[-1]
        among = run_series(driver, MomentumGrid(n_sites), [1, 2, kicks])[-1]
        assert alone == among

    def test_threads_do_not_change_results(self):
        times = np.linspace(0.1, 2.0, 7)
        serial = run_series(DriverSpec("quench", g_f=1.1), MomentumGrid(8), times)
        parallel = run_series(DriverSpec("quench", g_f=1.1), MomentumGrid(8), times, threads=4)
        for a, b in zip(serial, parallel):
            assert a.mx == b.mx and a.my == b.my and a.mz == b.mz

    @pytest.mark.parametrize("driver, schedule", [
        (DriverSpec("quench", g_f=0.5), np.linspace(0.1, 9.0, 12)),
        (DriverSpec("kick", g=0.5, tau=0.5, epsilon=0.02), range(1, 400, 37)),
    ])
    def test_threads_share_one_grid_bit_for_bit(self, driver, schedule):
        # every worker reads the one grid's tables, which no sample writes
        grid = MomentumGrid(40)
        assert run_series(driver, grid, schedule, threads=4) == run_series(driver, grid, schedule)

    @pytest.mark.parametrize("threads", [0, -3, 1.5, True, "2"])
    def test_thread_count_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_series(DriverSpec("quench", g_f=1.0), MomentumGrid(6), [0.5], threads=threads)

    def test_schedule_validation(self):
        driver = DriverSpec("quench", g_f=1.0)
        with pytest.raises(ValueError):
            run_series(driver, MomentumGrid(6), [0.5, 0.5])
        with pytest.raises(ValueError):
            run_series(driver, MomentumGrid(6), [-1.0, 0.5])
        with pytest.raises(ValueError):
            run_series(DriverSpec("kick", g=0.1, tau=0.2), MomentumGrid(6), [1.5, 2.0])
        # entries that numpy would take as objects: each error names the entry
        with pytest.raises(ValueError, match="schedule entry must be finite and real, got '1.0'"):
            run_series(driver, MomentumGrid(6), ["1.0"])
        with pytest.raises(ValueError, match=f"got {10**400}"):
            run_series(driver, MomentumGrid(6), [10**400])
        with pytest.raises(ValueError, match=f"got {10**30}"):
            run_series(DriverSpec("kick", g=0.1, tau=0.2), MomentumGrid(6), [10**30])
        with pytest.raises(ValueError, match=f"got {2**53 + 1}"):
            run_series(DriverSpec("kick", g=0.1, tau=0.2), MomentumGrid(6), [2**53 + 1])
        # a bool is no time and no kick count, even among numbers, where numpy would cast it to one
        for schedule in ([True], [0.25, True], [np.True_]):
            with pytest.raises(ValueError, match="^schedule entry must be finite and real, got "):
                run_series(driver, MomentumGrid(6), schedule)
            with pytest.raises(ValueError, match="^schedule entry must be finite and real, got "):
                run_series(DriverSpec("kick", g=0.1, tau=0.2), MomentumGrid(6), schedule)
        with pytest.raises(ValueError, match="^schedule entry must be finite and real, got nan"):
            run_series(driver, MomentumGrid(6), [float("nan")])
        # a kick count is an integer, not a float of integer value
        with pytest.raises(ValueError, match="^kick schedule entry must be a nonnegative integer, got 3.0"):
            run_series(DriverSpec("kick", g=0.1, tau=0.2), MomentumGrid(6), [1, 3.0])
        # the largest kick count whose double is exact is taken
        assert run_series(DriverSpec("kick", g=0.1, tau=0.2), MomentumGrid(6), [2**53])[0].time == 2.0**53
        # any other real is taken as its float: a Fraction samples bit for bit what 0.5 samples
        half, grid = Fraction(1, 2), MomentumGrid(6)
        assert run_series(driver, grid, [half]) == run_series(driver, grid, [0.5])
        assert (magnetization(evolve_quench(init_ferro(grid), 1.0, half))
                == magnetization(evolve_quench(init_ferro(grid), 1.0, 0.5)))
        # a known <c_1> is a finite complex number; a bool is none
        state = init_ferro(grid)
        for bad in (True, np.True_, "1", complex("nan"), float("inf"), complex(0.5, float("inf"))):
            with pytest.raises(ValueError, match="^c1 must be a finite complex number, got "):
                magnetization(state, bad)
        assert magnetization(state, 0.5) == magnetization(state, 0.5 + 0j)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_time_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            run_series(DriverSpec("quench", g_f=1.0), MomentumGrid(6), [0.5, bad])

    def test_non_finite_kick_count_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            run_series(DriverSpec("kick", g=0.1, tau=0.2), MomentumGrid(6), [1, float("inf")])

    def test_empty_schedule(self):
        assert run_series(DriverSpec("quench", g_f=1.0), MomentumGrid(6), []) == []
        # no batch, so no worker's run of batches either
        assert run_series(DriverSpec("quench", g_f=1.0), MomentumGrid(6), [], threads=2) == []


class TestBatches:
    """run_series evaluates <c_1> of its samples in stacks; each value is the one the sample has alone."""

    def test_mixed_dimension_batch_equals_its_samples_alone(self):
        # the g_f = 1 quench at N = 8 rejects a bra pair at some of its 21 times
        times = 0.25 * np.arange(21)
        driver, grid = DriverSpec("quench", g_f=1.0), MomentumGrid(8)
        states = [evolve_quench(init_ferro(grid), 1.0, t) for t in times]
        # the accepted-pair counts are out of descending order (2 at t = 2, 3 at t = 4.25, 4
        # elsewhere), so the groups' states are moved to make each group one run
        counts = [np.count_nonzero(np.abs(s.u_plus) > observables.PAIR_RTOL) for s in states]
        assert counts != sorted(counts, reverse=True)
        stacks = observables._c1_stacks(states, Workspace())
        # one stack per dimension, holding every state once
        assert len(stacks) == len(set(counts)) == 3
        assert sorted(i for members, _ in stacks for i in members) == list(range(21))
        for members, skew in stacks:
            for member, i in zip(skew if skew.ndim == 3 else [skew], members):
                np.testing.assert_array_equal(member, c1_bordered(states[i]).entries)
        assert observables._c1_values(states, Workspace()) == [expectation_c1(s) for s in states]
        assert run_series(driver, grid, times) == [
            MagnetizationSample(t, m.mx, m.my, m.mz) for t, m in zip(times, map(magnetization, states))]

    @pytest.mark.parametrize("n", [4, 10, 40])
    def test_single_state_unchanged(self, n):
        state = evolve_kick_step(init_ferro(MomentumGrid(n)), 0.5, 0.5, 0.02, 37)
        c1 = expectation_c1(state)
        assert observables._c1_values([state], Workspace()) == [c1]
        assert magnetization(state) == magnetization(state, c1)
        (sample,) = run_series(DriverSpec("kick", g=0.5, tau=0.5, epsilon=0.02), MomentumGrid(n), [37])
        assert sample == MagnetizationSample(37.0, *(getattr(magnetization(state), f) for f in ("mx", "my", "mz")))

    @staticmethod
    def poison(member):
        """A ``wick.pfaffian`` whose operand ``member`` of a stack, or whose one matrix, gets subnormal borders."""
        def poisoned(a, border=0):
            entries = a.entries.copy()
            target = entries[member] if entries.ndim == 3 else entries
            target[:, -border:] *= 1e-310
            target[-border:, :] *= 1e-310
            return pfaffian(SkewMatrix.antisymmetric(entries, border), border)
        return poisoned

    def test_range_error_names_the_schedule_entry(self, monkeypatch):
        driver, grid, times = DriverSpec("quench", g_f=0.5), MomentumGrid(8), [0.5, 1.0, 1.5, 2.0]
        (members, _), = observables._c1_stacks([evolve_quench(init_ferro(grid), 0.5, t) for t in times], Workspace())
        assert members == [0, 1, 2, 3]
        monkeypatch.setattr(isingring.wick, "pfaffian", self.poison(2))
        with pytest.raises(FloatingPointError, match=r"schedule entry 1\.5: stack member 2: the product"):
            run_series(driver, grid, times)
        # a batch of one sample is eliminated as one matrix, and is named too
        with pytest.raises(FloatingPointError, match=r"schedule entry 1\.0: the product"):
            run_series(driver, grid, [1.0])

    def test_batches_stay_within_the_byte_budget(self, monkeypatch):
        batches = []
        values = observables._c1_values

        def recording(states, workspace):
            batches.append(len(states))
            return values(states, workspace)

        driver, grid, times = DriverSpec("quench", g_f=1.5), MomentumGrid(40), np.linspace(0.0, 20.0, 21)
        monkeypatch.setattr(observables, "_c1_values", recording)
        whole = run_series(driver, grid, times)
        # B (N + 1)^2 complex entries within the budget, and at least one sample per batch
        assert batches == [21]
        monkeypatch.setattr(observables, "_BATCH_BYTES", 3 * 16 * 41 ** 2)
        batches.clear()
        assert run_series(driver, grid, times) == whole and batches == [3] * 7
        monkeypatch.setattr(observables, "_BATCH_BYTES", 1)
        batches.clear()
        assert run_series(driver, grid, times) == whole and batches == [1] * 21
        # with threads, every worker has a batch of its own
        monkeypatch.undo()
        monkeypatch.setattr(observables, "_c1_values", recording)
        batches.clear()
        assert run_series(driver, grid, times, threads=2) == whole and sorted(batches) == [10, 11]

    def test_validate_suite_takes_one_elimination_per_stack(self, monkeypatch):
        # 13 cases of 20 or 21 samples; three quenches (g_f = 1 at N = 6, 8, 10) mix two dimensions
        from isingring import cli

        counts = dict.fromkeys(("samples", "words", "pfaffians"), 0)

        def counting(module, name, key):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(observables, "magnetization", "samples")
        counting(observables, "vacuum_expectation", "words")
        counting(isingring.wick, "pfaffian", "pfaffians")
        assert cli.validate_suite()["passed"]
        assert counts == {"samples": 272, "words": 17, "pfaffians": 17}


class TestWorkspace:
    """Each worker of a series carves its samples' (dim x dim) arrays from one workspace."""

    @staticmethod
    def recording(monkeypatch):
        """The workspaces run_series makes from now on, each recording its allocations and its threads."""
        made = []

        class Recording(Workspace):
            def __init__(self):
                super().__init__()
                self.allocations, self.threads, self.peak = [], set(), 0
                made.append(self)

            def reserve(self, entries):
                before = self.buffer
                super().reserve(entries)
                if self.buffer is not before:
                    self.allocations.append(self.buffer.nbytes)

            def take(self, shape, dtype=complex):
                self.threads.add(threading.get_ident())
                array = super().take(shape, dtype)
                self.peak = max(self.peak, self.top)
                return array

        monkeypatch.setattr(observables, "Workspace", Recording)
        return made

    @staticmethod
    def peak(call) -> int:
        """The peak of the bytes traced above the baseline while ``call()`` runs, after one warm-up call."""
        call()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("time", [0.5, 1.0])
    def test_a_sample_lives_in_its_workspace(self, time, monkeypatch):
        # at N = 100 the quench to 0.5 rejects one bra pair at t = 0.5 and none at t = 1
        made = self.recording(monkeypatch)
        n, driver = 100, DriverSpec("quench", g_f=0.5)
        peak = self.peak(lambda: run_series(driver, MomentumGrid(n), [time]))
        # one allocation per call, exactly as large as the sample needs
        assert [w.allocations for w in made] == [[made[0].buffer.nbytes]] * 2
        assert [w.peak for w in made] == [made[0].buffer.size] * 2
        # beyond the workspace only O(N) arrays, and numpy's iterator buffers of at most
        # getbufsize() entries for each of three operands; a (dim x dim) float array is 82 KB
        assert peak <= made[-1].buffer.nbytes + 3 * 16 * np.getbufsize() + 512 * n

    def test_a_series_reuses_its_memory(self, monkeypatch):
        # in batches of one sample, each sample reuses the memory of the one before it
        monkeypatch.setattr(observables, "_BATCH_BYTES", 1)
        driver, grid, times = DriverSpec("quench", g_f=0.5), MomentumGrid(200), np.linspace(0.5, 10.0, 12)
        one = self.peak(lambda: run_series(driver, grid, times[:1]))
        # the samples themselves, and the lists that hold them, are all that grows
        assert self.peak(lambda: run_series(driver, grid, times)) <= one + 1024 * len(times)

    def test_a_larger_batch_grows_the_workspace_once(self, monkeypatch):
        # at N = 100 the quench to 0.5 rejects no bra pair at t = 1, 2 and 3, and one at t = 1.5 and 2.5
        monkeypatch.setattr(observables, "_BATCH_BYTES", 1)
        made = self.recording(monkeypatch)
        driver, grid, times = DriverSpec("quench", g_f=0.5), MomentumGrid(100), [1.0, 1.5, 2.0, 2.5, 3.0]
        assert run_series(driver, grid, times) == [run_series(driver, grid, [t])[0] for t in times]
        series, alone = made[0], made[1:]
        # sized for the first sample, then at least doubled for the first that needs more
        assert series.allocations[0] == alone[0].allocations[0]
        assert series.allocations[1:] == [2 * series.allocations[0]]
        assert series.peak == max(w.peak for w in alone)

    @pytest.mark.parametrize("driver, schedule", [
        (DriverSpec("quench", g_f=0.5), [0.5, 1.7, 2.9, 4.1]),
        (DriverSpec("kick", g=0.5, tau=0.5, epsilon=0.02), [1, 37, 180, 500]),
    ])
    def test_workers_never_share_a_workspace(self, driver, schedule, monkeypatch):
        # from N = 256 on every batch holds one sample, so each worker's batches follow one
        # another in its workspace
        grid = MomentumGrid(300)
        made = self.recording(monkeypatch)
        serial = run_series(driver, grid, schedule)
        assert len(made) == 1 and len(made[0].allocations) == 1
        made.clear()
        assert run_series(driver, grid, schedule, threads=2) == serial
        assert len(made) == 2 and all(len(w.allocations) == 1 and len(w.threads) == 1 for w in made)
        # a sample alone, in a workspace of its own, is the series' sample
        if driver.kind == "quench":
            state = evolve_quench(init_ferro(grid), driver.g_f, schedule[-1])
        else:
            state = evolve_kick_step(init_ferro(grid), driver.g, driver.tau, driver.epsilon, schedule[-1])
        alone = magnetization(state)
        assert (alone.mx, alone.my, alone.mz) == (serial[-1].mx, serial[-1].my, serial[-1].mz)


def test_sample_dataclass_fields():
    s = MagnetizationSample(time=1.0, mx=2.0, my=3.0, mz=4.0)
    assert (s.time, s.mx, s.my, s.mz) == (1.0, 2.0, 3.0, 4.0)
