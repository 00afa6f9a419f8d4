"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` and in
the -v test listing) and asserts the pinned tolerance.
"""

import numpy as np
import pytest

from isingring import observables, oracle_ed
from isingring.cli import refine_extremum, refined_maximum, refined_minimum
from isingring.dynamics import DriverSpec
from isingring.model import MomentumGrid, cat_norm_identity, chord_excess, delta_l, gap_delta
from isingring.observables import run_series
from isingring.pfaffian import pfaffian
from tests_support import build_hamiltonian, build_momentum_sgs, cat_state

THREADS = 4


def _report(name, passed, detail=""):
    print(f"{'PASS' if passed else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def _mx_over_n(n, g_f, times):
    samples = run_series(
        DriverSpec("quench", g_f=g_f), MomentumGrid(n), times, threads=THREADS
    )
    return np.array([s.mx for s in samples]) / n


def test_criterion_01_quench_matches_exact_diagonalization():
    times = np.round(np.arange(0.0, 10.0 + 0.05, 0.1), 10)
    worst = 0.0
    for n in (4, 6, 8, 10):
        grid = MomentumGrid(n)
        for g_f in (0.5, 1.0, 1.5):
            exact = oracle_ed.quench_trajectory(n, g_f, times)
            samples = run_series(DriverSpec("quench", g_f=g_f), grid, times, threads=THREADS)
            engine = np.array([[s.mx, s.my, s.mz] for s in samples])
            worst = max(worst, float(np.abs(engine - exact).max()) / n)
    _report(
        "quench magnetizations match dense diagonalization (per-site dev < 1e-8)",
        worst < 1e-8,
        f"max per-site deviation {worst:.3e}",
    )


def test_criterion_02_kick_matches_exact_diagonalization():
    n, g, tau, eps, n_kicks = 8, 0.5, 0.5, 0.02, 50
    exact = oracle_ed.kick_trajectory(n, g, tau, eps, n_kicks)
    samples = run_series(
        DriverSpec("kick", g=g, tau=tau, epsilon=eps),
        MomentumGrid(n),
        range(1, n_kicks + 1),
        threads=THREADS,
    )
    engine = np.array([[s.mx, s.my, s.mz] for s in samples])
    worst = float(np.abs(engine - exact).max())
    _report(
        "kicked magnetizations match dense diagonalization (dev < 1e-8)",
        worst < 1e-8,
        f"max deviation {worst:.3e}",
    )


def _fit_exponential(sizes, values):
    slope, intercept = np.polyfit(sizes, np.log(values), 1)
    return np.exp(intercept), -slope  # (prefactor, decay rate)


def test_criterion_03_ordered_phase_first_minimum_scaling():
    sizes = (30, 40, 50, 60)
    dt = 0.25
    t_devs, minima = [], []
    for n in sizes:
        lo, hi = 0.35 * n, 0.7 * n
        times = np.arange(lo, hi + dt / 2, dt)
        mx = _mx_over_n(n, 0.5, times)
        t_min, v_min = refined_minimum(times, mx)
        predicted = 0.525 * n + 0.4
        t_devs.append(abs(t_min - predicted) / predicted)
        minima.append(v_min)
    prefactor, rate = _fit_exponential(np.array(sizes), np.array(minima))
    ok = (
        max(t_devs) < 0.02
        and abs(rate - 0.0304) / 0.0304 < 0.15
        and abs(prefactor - 0.9744) / 0.9744 < 0.15
    )
    _report(
        "first-minimum times follow 0.525N + 0.4 and depths follow 0.9744 exp(-0.0304N)",
        ok,
        f"max time dev {max(t_devs):.3%}, fit {prefactor:.4f} exp(-{rate:.5f} N)",
    )


def test_criterion_04_critical_quench_revival_scaling():
    sizes = (30, 40, 50, 60)
    dt = 0.25
    t_devs, maxima = [], []
    for n in sizes:
        lo, hi = 0.35 * n, 0.7 * n
        times = np.arange(lo, hi + dt / 2, dt)
        mx = _mx_over_n(n, 1.0, times)
        t_max, v_max = refined_maximum(times, mx)
        predicted = 0.515 * n + 0.24
        t_devs.append(abs(t_max - predicted) / predicted)
        maxima.append(v_max)
    prefactor, rate = _fit_exponential(np.array(sizes), np.array(maxima))
    ok = (
        max(t_devs) < 0.02
        and abs(rate - 0.04478) / 0.04478 < 0.15
        and abs(prefactor - 0.8316) / 0.8316 < 0.15
    )
    _report(
        "revival times follow 0.515N + 0.24 and heights follow 0.8316 exp(-0.04478N)",
        ok,
        f"max time dev {max(t_devs):.3%}, fit {prefactor:.4f} exp(-{rate:.5f} N)",
    )


def test_criterion_05_parity_gap_identities():
    exact_zero = all(gap_delta(MomentumGrid(n), 0.0) == 0.0 for n in (4, 8, 16, 64))
    critical = all(
        abs(gap_delta(MomentumGrid(n), 1.0) - np.tan(np.pi / (4 * n))) < 1e-12
        for n in (4, 8, 16, 64)
    )
    positive = all(
        gap_delta(MomentumGrid(n), g) > 0.0
        for n in (4, 16, 64)
        for g in np.linspace(3.0 / 200, 3.0, 200)
    )
    _report(
        "parity gap: exact zero at g=0, tan(pi/4N) at g=1, positive on (0, 3]",
        exact_zero and critical and positive,
    )


def test_criterion_06_chord_difference_identities():
    critical = all(
        abs(delta_l(1.0, n) - (1.0 + np.tan(np.pi / (4 * n)))) < 1e-12
        for n in (4, 8, 16, 64)
    )
    # the excess delta_l - 1 is the well-posed form of the > 1 inequality
    above_one = all(
        chord_excess(x, n) > 0.0
        for n in (4, 16, 64)
        for x in np.linspace(3.0 / 500, 3.0, 500)
    )
    monotone = True
    xs = np.linspace(1.0, 3.0, 201)
    for n in (4, 16, 64):
        values = np.array([delta_l(x, n) for x in xs])
        monotone = monotone and bool(np.all(np.diff(values) > 0.0))
    _report(
        "chord difference: 1 + tan(pi/4N) at x=1, exceeds 1 on (0, 3], increasing on [1, 3]",
        critical and above_one and monotone,
    )


def test_criterion_07_cat_states_equal_momentum_ground_states():
    worst = 0.0
    for n in (4, 6, 8, 10):
        even_overlap = np.vdot(
            cat_state(n, "even").amplitudes,
            build_momentum_sgs(n, "even", 0.0).amplitudes,
        )
        odd_overlap = np.vdot(
            cat_state(n, "odd").amplitudes,
            np.exp(-1j * np.pi / 4.0)
            * build_momentum_sgs(n, "odd", 0.0).amplitudes,
        )
        worst = max(worst, abs(even_overlap - 1.0), abs(odd_overlap - 1.0))
    _report(
        "cat states coincide with momentum-space sector ground states at g=0",
        worst < 1e-10,
        f"max |overlap - 1| = {worst:.3e}",
    )


def test_criterion_08_ground_state_parity_and_energy():
    from isingring.model import sgs_energies

    ok = True
    worst = 0.0
    for n in (4, 6, 8, 10):
        for g in (0.5, 1.0, 1.5):
            ok = ok and oracle_ed.ground_parity(n, g) == "even"
            e_ground = np.linalg.eigvalsh(build_hamiltonian(n, g))[0]
            e_plus, _ = sgs_energies(MomentumGrid(n), g)
            worst = max(worst, abs(e_ground - e_plus))
    _report(
        "dense ground state is parity-even with the even-sector energy (dev < 1e-10)",
        ok and worst < 1e-10,
        f"max energy deviation {worst:.3e}",
    )


def test_criterion_09_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(2024)
    worst = 0.0
    dims = [2, 4, 6, 8, 10, 12, 14, 16]
    for trial in range(200):
        n = dims[trial % len(dims)]
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = m - m.T
        pf = pfaffian(a)
        det = np.linalg.det(a)
        worst = max(worst, abs(pf * pf - det) / max(abs(det), 1e-300))
    # covariance: transposition flips the sign, scaling row+column i scales Pf
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = a - a.T
    base = pfaffian(a)
    perm = np.arange(8)
    perm[[2, 6]] = perm[[6, 2]]
    sign_ok = abs(pfaffian(a[np.ix_(perm, perm)]) + base) < 1e-9 * abs(base)
    scaled = a.copy()
    scaled[3, :] *= 1.7 - 0.4j
    scaled[:, 3] *= 1.7 - 0.4j
    scale_ok = abs(pfaffian(scaled) - (1.7 - 0.4j) * base) < 1e-9 * abs(base)
    _report(
        "Pfaffian squares to the determinant (rel 1e-9, 200 matrices) with covariances",
        worst < 1e-9 and sign_ok and scale_ok,
        f"max relative deviation {worst:.3e}",
    )


def test_criterion_10_wick_engine_matches_explicit_inner_product():
    from tests_support import (
        as_word,
        bcs_amplitudes,
        bra_word,
        dense_expectation,
        inner_product_Imn,
        ket_word,
        minus_modes,
        plus_modes,
    )

    rng = np.random.default_rng(77)
    grid = MomentumGrid(12)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        bra = [
            (mode, *uv)
            for mode, uv in zip(plus_modes(grid)[:m], bcs_amplitudes(rng, m, 0.1))
        ]
        ket = [
            (mode, *uv)
            for mode, uv in zip(minus_modes(grid)[:n], bcs_amplitudes(rng, n, 0.1))
        ]
        explicit = inner_product_Imn(bra, ket)
        word = dense_expectation(as_word(bra_word(bra) + ket_word(ket)))
        worst = max(worst, abs(explicit - word) / max(abs(word), 1e-300))
    _report(
        "division-free Wick evaluation matches the explicit overlap formula (rel 1e-10)",
        worst < 1e-10,
        f"max relative deviation {worst:.3e}",
    )


def test_criterion_11_momentum_product_normalization():
    worst = max(
        abs(cat_norm_identity(n) - (1.0 / np.sqrt(2.0)) ** (n - 1)) for n in (4, 8, 16, 32)
    )
    _report(
        "prod sin(k/2) over the even grid equals 2^{-(N-1)/2} (dev < 1e-12)",
        worst < 1e-12,
        f"max deviation {worst:.3e}",
    )


def test_criterion_12_perfect_kick_period_two_recurrence():
    n = 8
    samples = run_series(
        DriverSpec("kick", g=0.0, tau=0.5, epsilon=0.0),
        MomentumGrid(n),
        range(1, 201),
        threads=THREADS,
    )
    mx = np.array([s.mx for s in samples]) / n
    worst = max(
        float(np.abs(mx[1::2] - 1.0).max()),  # after even kick counts
        float(np.abs(mx[0::2] + 1.0).max()),  # after odd kick counts
    )
    _report(
        "perfect pi kicks at zero field recur with period two (dev < 1e-10)",
        worst < 1e-10,
        f"max deviation {worst:.3e}",
    )


def test_property_subharmonic_period_scales_with_system_size():
    # stroboscopic envelope period grows linearly with N under imperfect kicks
    sizes = (20, 30, 40)
    n_kicks = 400
    periods = []
    for n in sizes:
        samples = run_series(
            DriverSpec("kick", g=0.5, tau=0.5, epsilon=0.02),
            MomentumGrid(n),
            range(1, n_kicks + 1),
            threads=THREADS,
        )
        signs = np.array([(-1.0) ** k for k in range(1, n_kicks + 1)])
        signal = signs * np.array([s.mx for s in samples]) / n
        spectrum = np.abs(np.fft.rfft(signal - signal.mean()))
        peak = 1 + int(np.argmax(spectrum[1:]))
        freq, _ = refine_extremum(
            np.arange(len(spectrum)) / n_kicks, spectrum, peak
        )
        periods.append(1.0 / freq)
    slope, intercept = np.polyfit(sizes, periods, 1)
    fitted = slope * np.array(sizes) + intercept
    residual = np.array(periods) - fitted
    total = np.array(periods) - np.mean(periods)
    r_squared = 1.0 - float(residual @ residual) / float(total @ total)
    _report(
        "dominant stroboscopic period grows linearly with N (R^2 > 0.95)",
        slope > 0.0 and r_squared > 0.95,
        f"periods {np.round(periods, 1).tolist()} kicks, R^2 = {r_squared:.4f}",
    )
