"""Self-consistency tests for the dense exact-diagonalization oracle."""

import tracemalloc

import numpy as np
import pytest

from isingring import oracle_ed
from isingring.model import MomentumGrid, dispersion, sgs_energies
from isingring.oracle_ed import ground_parity, kick_trajectory, quench_trajectory
from tests_support import (
    DenseState,
    apply_kick,
    build_hamiltonian,
    build_momentum_sgs,
    cat_state,
    evolve_exact,
    ferro_state,
    ground_parity_full_space,
    isometry,
    measure,
    plus_modes,
)


def full_space_row(psi):
    """(mx, my, mz) of a full-space state through the single-site measure."""
    n = psi.n_sites
    return [n * measure(psi, "x", 1), n * measure(psi, "y", 1),
            sum(measure(psi, "z", j) for j in range(1, n + 1))]


def parity_block(h, n_sites, parity):
    """Restrict the Hamiltonian to one fermion-parity sector of the spin basis."""
    popcount = np.array([bin(s).count("1") for s in range(2**n_sites)])
    keep = np.flatnonzero(popcount % 2 == (0 if parity == "even" else 1))
    return h[np.ix_(keep, keep)]


class TestHamiltonian:
    def test_hermitian_and_real(self):
        h = build_hamiltonian(6, 0.7)
        assert np.abs(h - h.T).max() == 0.0

    def test_classical_point_spectrum(self):
        # g = 0: doubly degenerate ground state at -N
        energies = np.linalg.eigvalsh(build_hamiltonian(4, 0.0))
        assert energies[0] == pytest.approx(-4.0)
        assert energies[1] == pytest.approx(-4.0)
        assert energies[2] > energies[1] + 1e-6

    def test_strong_field_limit(self):
        # g >> 1: ground state polarizes along +z (all bits set)
        n = 4
        energies, vectors = np.linalg.eigh(build_hamiltonian(n, 50.0))
        assert energies[0] == pytest.approx(-50.0 * n, abs=0.2)
        assert int(np.argmax(np.abs(vectors[:, 0]))) == 2**n - 1

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("g", [0.3, 0.5, 1.0, 2.0])
    def test_ground_energy_matches_momentum_sum(self, n, g):
        energies = np.linalg.eigvalsh(build_hamiltonian(n, g))
        e_plus, _ = sgs_energies(MomentumGrid(n), g)
        assert energies[0] == pytest.approx(e_plus, abs=1e-10)

    @pytest.mark.parametrize("g", [0.3, 0.8, 1.0])
    def test_parity_block_ground_energies(self, g):
        # each parity block bottoms out at the corresponding sector energy
        n = 6
        h = build_hamiltonian(n, g)
        e_plus, e_minus = sgs_energies(MomentumGrid(n), g)
        even_low = np.linalg.eigvalsh(parity_block(h, n, "even"))[0]
        odd_low = np.linalg.eigvalsh(parity_block(h, n, "odd"))[0]
        assert even_low == pytest.approx(e_plus, abs=1e-10)
        assert odd_low == pytest.approx(e_minus, abs=1e-10)

    @pytest.mark.parametrize("g", [0.5, 1.5])
    def test_first_even_excitation_is_two_quasiparticles(self, g):
        n = 6
        grid = MomentumGrid(n)
        block = parity_block(build_hamiltonian(n, g), n, "even")
        levels = np.linalg.eigvalsh(block)
        e_plus, _ = sgs_energies(grid, g)
        k_top = plus_modes(grid)[-1].momentum  # closest to pi
        assert levels[1] == pytest.approx(e_plus + 2.0 * dispersion(k_top, g), abs=1e-9)

    def test_size_validation(self):
        for n in (3, 2, 14, True, "4"):
            with pytest.raises(ValueError):
                build_hamiltonian(n, 1.0)
        with pytest.raises(ValueError, match="^n_sites must be an integer, got True"):
            DenseState(True, np.array([1.0, 0.0]))


class TestDenseState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            DenseState(4, np.ones(16))
        with pytest.raises(ValueError):
            DenseState(4, np.zeros(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            DenseState(4, np.full(16, bad))


class TestEvolution:
    def test_zero_time_identity(self):
        h = build_hamiltonian(4, 0.9)
        psi = ferro_state(4)
        out = evolve_exact(psi, h, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-13)

    def test_eigenstate_acquires_pure_phase(self):
        h = build_hamiltonian(4, 0.9)
        energies, vectors = np.linalg.eigh(h)
        psi = DenseState(4, vectors[:, 0].astype(complex))
        out = evolve_exact(psi, h, 1.3)
        np.testing.assert_allclose(
            out.amplitudes, np.exp(-1j * energies[0] * 1.3) * psi.amplitudes, atol=1e-12
        )

    def test_kick_special_cases(self):
        psi = ferro_state(4)
        out = apply_kick(psi, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)
        # a pi kick flips +x polarization to -x up to a global phase
        flipped = apply_kick(psi, np.pi)
        left = ferro_state(4, "left")
        assert abs(np.vdot(left.amplitudes, flipped.amplitudes)) == pytest.approx(1.0)

    def test_kick_preserves_z_magnetization(self):
        h = build_hamiltonian(4, 0.8)
        psi = evolve_exact(ferro_state(4), h, 0.7)
        kicked = apply_kick(psi, 1.1)
        for j in range(1, 5):
            assert measure(kicked, "z", j) == pytest.approx(measure(psi, "z", j), abs=1e-12)


class TestMeasure:
    def test_ferro_polarization(self):
        psi = ferro_state(6)
        for j in range(1, 7):
            assert measure(psi, "x", j) == pytest.approx(1.0)
            assert measure(psi, "y", j) == pytest.approx(0.0, abs=1e-14)
            assert measure(psi, "z", j) == pytest.approx(0.0, abs=1e-14)
        left = ferro_state(6, "left")
        assert measure(left, "x", 1) == pytest.approx(-1.0)

    def test_y_convention(self):
        # sigma^y |down> = -i |up>: site 1 in (|up> + i |down>)/sqrt(2) has <sigma^y> = +1
        amp = np.zeros(16, dtype=complex)
        amp[0] = 1.0j / np.sqrt(2.0)
        amp[1] = 1.0 / np.sqrt(2.0)
        psi = DenseState(4, amp)
        assert measure(psi, "y", 1) == pytest.approx(1.0)
        assert measure(psi, "x", 1) == pytest.approx(0.0, abs=1e-14)

    def test_z_on_basis_state(self):
        amp = np.zeros(16, dtype=complex)
        amp[0b0101] = 1.0
        psi = DenseState(4, amp)
        assert measure(psi, "z", 1) == pytest.approx(1.0)
        assert measure(psi, "z", 2) == pytest.approx(-1.0)

    def test_site_range(self):
        with pytest.raises(ValueError):
            measure(ferro_state(4), "x", 5)


class TestGroundParity:
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("g", [0.5, 1.5])
    def test_even_everywhere(self, n, g):
        assert ground_parity(n, g) == "even"

    def test_degenerate_point_rejected(self):
        with pytest.raises(ValueError):
            ground_parity(4, 0.0)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_matches_full_space_reference(self, n):
        # the sector answer equals the full 2^N eigensolve's, or both raise (g = 0 and,
        # at N = 10, its neighbours, where the two parities' ground states nearly meet)
        def outcome(parity, g):
            try:
                return parity(n, g)
            except ValueError:
                return ValueError

        for g in np.linspace(-2.0, 2.0, 41):
            assert outcome(ground_parity, g) == outcome(ground_parity_full_space, g), g

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "0.5", True])
    def test_non_finite_field_rejected(self, bad):
        with pytest.raises(ValueError, match="g must be finite"):
            ground_parity(6, bad)

    def test_size_validation(self):
        for n in (14, 7, 8.0):
            with pytest.raises(ValueError, match="n_sites must be"):
                ground_parity(n, 0.5)

    def test_no_full_space_matrix_at_twelve_sites(self):
        # one dense 2^12 x 2^12 float matrix alone would take 134 MB
        tracemalloc.start()
        try:
            parity = ground_parity(12, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parity == "even"
        assert peak < 32e6


class TestCatAndMomentumStates:
    def test_cat_states_have_definite_fermion_parity(self):
        for n in (4, 6):
            popcount = np.array([bin(s).count("1") for s in range(2**n)])
            parity_diag = np.where(popcount % 2 == 0, 1.0, -1.0)
            even = cat_state(n, "even").amplitudes
            odd = cat_state(n, "odd").amplitudes
            assert np.vdot(even, parity_diag * even).real == pytest.approx(1.0)
            assert np.vdot(odd, parity_diag * odd).real == pytest.approx(-1.0)

    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_cat_states_equal_momentum_states_at_zero_field(self, n):
        even = cat_state(n, "even").amplitudes
        odd = cat_state(n, "odd").amplitudes
        g_even = build_momentum_sgs(n, "even", 0.0).amplitudes
        g_odd = build_momentum_sgs(n, "odd", 0.0).amplitudes
        assert np.vdot(even, g_even) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(odd, np.exp(-1j * np.pi / 4.0) * g_odd) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("g", [0.4, 1.0])
    def test_momentum_states_are_sector_eigenstates(self, g):
        n = 6
        h = build_hamiltonian(n, g)
        e_plus, e_minus = sgs_energies(MomentumGrid(n), g)
        for sector, energy in (("even", e_plus), ("odd", e_minus)):
            psi = build_momentum_sgs(n, sector, g).amplitudes
            residual = h @ psi - energy * psi
            assert np.linalg.norm(residual) < 1e-10


class TestTrajectories:
    def test_quench_initial_row(self):
        rows = quench_trajectory(4, 0.7, [0.0, 0.5])
        np.testing.assert_allclose(rows[0], [4.0, 0.0, 0.0], atol=1e-12)

    # the two eigendecompositions' phases differ by about eps |E| t, which reaches
    # 2e-12 in (mx, my, mz) at N = 10, t = 30
    @pytest.mark.parametrize("n, g_f, atol", [(6, 0.5, 1e-12), (6, 1.5, 1e-12),
                                              (10, 0.5, 3e-12), (10, 1.5, 3e-12)],
                             ids=["0.5", "1.5", "10-0.5", "10-1.5"])
    def test_quench_rows_match_per_time_evolution(self, n, g_f, atol):
        # more times than one block of oracle_ed._TIME_BLOCK, so block edges are crossed;
        # the reference evolves in the full 2^N space, one eigendecomposition for all times
        times = np.linspace(0.0, 30.0, 2 * oracle_ed._TIME_BLOCK + 3)
        energies, vectors = np.linalg.eigh(build_hamiltonian(n, g_f))
        coeff = vectors.T @ ferro_state(n).amplitudes
        expected = []
        for t in times:
            psi = DenseState(n, vectors @ (np.exp(-1j * energies * t) * coeff))
            expected.append(full_space_row(psi))
        np.testing.assert_allclose(quench_trajectory(n, g_f, times), expected, rtol=0, atol=atol)

    @pytest.mark.parametrize("n", [6, 8])
    def test_kick_rows_match_per_kick_evolution(self, n):
        g, tau, eps, n_kicks = 0.7, 0.45, 0.08, 30
        h = build_hamiltonian(n, g)
        psi = ferro_state(n)
        expected = []
        for _ in range(n_kicks):
            psi = apply_kick(evolve_exact(psi, h, tau), np.pi * (1.0 - eps))
            expected.append(full_space_row(psi))
        np.testing.assert_allclose(kick_trajectory(n, g, tau, eps, n_kicks), expected,
                                   rtol=0, atol=1e-12)

    def test_long_kick_run_matches_full_space_evolution(self):
        # 500 periods in the full 2^N space: evolve_exact's step with its eigendecomposition
        # taken once (500 of them at N = 8 would take seconds), then apply_kick
        n, g, tau, eps, n_kicks = 8, 0.7, 0.45, 0.08, 500
        energies, vectors = np.linalg.eigh(build_hamiltonian(n, g))
        period = vectors @ (np.exp(-1j * energies * tau)[:, None] * vectors.T)
        psi = ferro_state(n)
        expected = []
        for _ in range(n_kicks):
            evolved = period @ psi.amplitudes
            psi = apply_kick(DenseState(n, evolved / np.linalg.norm(evolved)), np.pi * (1.0 - eps))
            expected.append(full_space_row(psi))
        np.testing.assert_allclose(kick_trajectory(n, g, tau, eps, n_kicks), expected,
                                   rtol=0, atol=1e-11)

    @pytest.mark.parametrize("trajectory", [
        lambda n: quench_trajectory(n, 0.5, [0.0, 1.0]),
        lambda n: kick_trajectory(n, 0.5, 0.5, 0.02, 2),
    ], ids=["quench", "kick"])
    def test_size_validation(self, trajectory):
        # 8.0 and "8" would reach numpy's left_shift and raise TypeError there
        for n in (14, 7, 2, 8.0, "8", True):
            with pytest.raises(ValueError, match="n_sites must be"):
                trajectory(n)

    @pytest.mark.parametrize("rows", [
        lambda: quench_trajectory(4, 0.5, []),
        lambda: kick_trajectory(4, 0.5, 0.5, 0.02, 0),
    ], ids=["quench", "kick"])
    def test_empty_schedule_gives_no_rows(self, rows):
        assert rows().shape == (0, 3)

    @pytest.mark.parametrize("n_kicks", [-3, 2.0, 2.5, "2", True])
    def test_kick_count_must_be_a_nonnegative_integer(self, n_kicks):
        with pytest.raises(ValueError, match="n_kicks"):
            kick_trajectory(4, 0.5, 0.5, 0.02, n_kicks)

    def test_numpy_integer_kick_count(self):
        np.testing.assert_array_equal(kick_trajectory(4, 0.5, 0.5, 0.02, np.int64(3)),
                                      kick_trajectory(4, 0.5, 0.5, 0.02, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "0.5", True])
    @pytest.mark.parametrize("name, trajectory", [
        ("g_f", lambda x: quench_trajectory(4, x, [0.0, 1.0])),
        ("g", lambda x: kick_trajectory(4, x, 0.5, 0.02, 2)),
        ("tau", lambda x: kick_trajectory(4, 0.5, x, 0.02, 2)),
        ("epsilon", lambda x: kick_trajectory(4, 0.5, 0.5, x, 2)),
        # the builders: a NaN field made a NaN matrix and a warning in a division
        ("g", lambda x: build_hamiltonian(4, x)),
        ("g", lambda x: build_momentum_sgs(4, "even", x)),
    ], ids=["g_f", "g", "tau", "epsilon", "hamiltonian_g", "sgs_g"])
    def test_non_finite_parameter_rejected_up_front(self, name, trajectory, bad):
        # raised before any eigensolve or phase, so no LinAlgError and no RuntimeWarning
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            trajectory(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "0.5", None, True])
    def test_non_finite_time_rejected_up_front(self, bad):
        # named, where a NaN time used to warn and then fail the norm check of a NaN state
        with pytest.raises(ValueError, match="^times entry must be finite and real"):
            quench_trajectory(4, 0.5, [0.0, bad])

    @pytest.mark.parametrize("call, message", [
        (lambda: quench_trajectory(4, 0.5, [0.0, 1e308]), r"^a times entry of magnitude 1e\+308 takes the phases E t at g_f = 0\.5"),
        (lambda: quench_trajectory(4, 1e308, [0.0]), r"^g_f = 1e\+308 takes the energies of 4 sites"),
        (lambda: kick_trajectory(4, 1e308, 0.5, 0.02, 2), r"^g = 1e\+308 takes the energies"),
        (lambda: kick_trajectory(4, 0.5, -1e308, 0.02, 2), r"^tau = -1e\+308 takes the phases E tau"),
        (lambda: kick_trajectory(4, 0.5, 0.5, 1e308, 2), r"^epsilon = 1e\+308 takes the kick phases"),
        (lambda: ground_parity(4, 1e308), r"^g = 1e\+308 takes the energies"),
    ], ids=["time", "g_f", "g", "tau", "epsilon", "ground_parity"])
    def test_finite_drive_whose_phase_overflows_rejected(self, call, message):
        # an energy or a phase E t beyond the double range was a NaN state and a warning
        with pytest.raises(ValueError, match=message), np.errstate(all="raise"):
            call()

    @pytest.mark.parametrize("times", [np.zeros((2, 2)), np.array(0.5), np.zeros((0, 3)), 0.5])
    def test_times_must_be_one_dimensional(self, times):
        with pytest.raises(ValueError, match="^times must be a one-dimensional sequence, got "):
            quench_trajectory(4, 0.5, times)

    @pytest.mark.parametrize("n", [4, 8])
    def test_shared_sector_gives_the_same_rows(self, n):
        sector = oracle_ed.ring_sector(n)
        times = np.linspace(0.0, 3.0, 7)
        for g_f in (0.5, 1.5):
            np.testing.assert_array_equal(quench_trajectory(n, g_f, times, sector=sector),
                                          quench_trajectory(n, g_f, times))
        np.testing.assert_array_equal(kick_trajectory(n, 0.5, 0.5, 0.02, 9, sector=sector),
                                      kick_trajectory(n, 0.5, 0.5, 0.02, 9))
        # shared between trajectories, so no trajectory may write to it
        arrays = (*sector.bonds, sector.z_total, *sector.lower, sector.ferro)
        assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("sector, got", [(lambda: oracle_ed.ring_sector(6), "the sector of N = 6"),
                                             (lambda: "sector", "str")])
    def test_sector_of_another_ring_rejected(self, sector, got):
        for trajectory in (lambda s: quench_trajectory(4, 0.5, [0.0], sector=s),
                           lambda s: kick_trajectory(4, 0.5, 0.5, 0.02, 1, sector=s)):
            with pytest.raises(ValueError, match=rf"^sector must be ring_sector\(4\), got {got}$"):
                trajectory(sector())

    def test_no_full_space_matrix_at_twelve_sites(self):
        # one dense 2^12 x 2^12 float matrix alone would take 134 MB
        tracemalloc.start()
        try:
            quench_trajectory(12, 0.5, np.linspace(0.0, 10.0, 21))
            kick_trajectory(12, 1.5, 0.3, 0.1, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    @pytest.mark.parametrize("trajectory", [
        lambda: quench_trajectory(12, 0.5, np.linspace(0.0, 10.0, 21)),
        lambda: kick_trajectory(12, 1.5, 0.3, 0.1, 50),
    ], ids=["quench", "kick"])
    def test_states_never_expand_into_the_spin_basis(self, trajectory):
        # one block of _TIME_BLOCK states in the 2^12 spin basis would take 4.2 MB
        tracemalloc.start()
        try:
            trajectory()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**12 * oracle_ed._TIME_BLOCK * 16

    def test_perfect_kick_alternation(self):
        rows = kick_trajectory(4, 0.0, 0.5, 0.0, 4)
        np.testing.assert_allclose(rows[:, 0], [-4.0, 4.0, -4.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(rows[:, 2], 0.0, atol=1e-12)

    def test_translation_invariance_of_sampled_site(self):
        # <sigma^x_j> must be j-independent along the quench
        n = 6
        h = build_hamiltonian(n, 0.6)
        psi = evolve_exact(ferro_state(n), h, 1.4)
        values = [measure(psi, "x", j) for j in range(1, n + 1)]
        np.testing.assert_allclose(values, values[0], atol=1e-12)


class TestZeroMomentumSector:
    @pytest.mark.parametrize("n, columns", [(4, 6), (6, 14), (8, 36), (10, 108), (12, 352)])
    def test_one_column_per_binary_necklace(self, n, columns):
        col, weight = oracle_ed._orbit_basis(n)
        p = isometry(col, weight)
        assert p.shape == (2**n, columns)
        np.testing.assert_allclose(p.T @ p, np.eye(columns), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("g", [0.0, 0.6, 1.7])
    def test_sector_hamiltonian_is_projected_full_hamiltonian(self, g):
        # the two parity blocks that the trajectories diagonalize, against P^T H P of the full H
        n = 8
        col, weight = oracle_ed._orbit_basis(n)
        p = isometry(col, weight)
        sector = oracle_ed.ring_sector(n)
        e = sector.even
        h = np.zeros((col.max() + 1,) * 2)
        h[:e, :e], h[e:, e:] = oracle_ed._blocks(sector, g)
        np.testing.assert_allclose(h, p.T @ build_hamiltonian(n, g) @ p, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("g", [0.0, 0.6, 1.7])
    def test_sector_spectrum_within_full_spectrum(self, g):
        n = 8
        sector, _ = oracle_ed._eigensystem(oracle_ed.ring_sector(n), g)
        full = np.linalg.eigvalsh(build_hamiltonian(n, g))
        assert np.abs(sector[:, None] - full[None, :]).min(axis=1).max() < 1e-12

    def test_ferro_state_lies_in_the_sector(self):
        n = 6
        col, weight = oracle_ed._orbit_basis(n)
        p = isometry(col, weight)
        ferro = ferro_state(n).amplitudes
        np.testing.assert_allclose(p @ (p.T @ ferro), ferro, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_hamiltonian_is_block_diagonal_in_parity(self, n):
        # the even orbits are numbered first, and H has exact zeros between the parities
        col, weight = oracle_ed._orbit_basis(n)
        odd = np.zeros(col.max() + 1, dtype=bool)
        odd[col] = oracle_ed._popcount(n) % 2 == 1
        even = np.count_nonzero(~odd)
        assert not odd[:even].any() and odd[even:].all()
        # the field's term is diagonal, so only the bonds could couple the parities
        bonds = oracle_ed._sector_bonds(n, col, weight)
        assert np.count_nonzero(bonds[:even, even:]) == 0
        assert np.count_nonzero(bonds[even:, :even]) == 0
        # the blocks diagonalized at a field are the bonds' diagonal blocks plus a diagonal
        sector = oracle_ed.ring_sector(n)
        assert sector.even == even
        for block, bond_block in zip(oracle_ed._blocks(sector, 0.6), (bonds[:even, :even], bonds[even:, even:])):
            off = ~np.eye(len(block), dtype=bool)
            assert np.array_equal(block[off], bond_block[off])

    def test_measure_rejects_a_block_that_is_not_normalized(self):
        sector = oracle_ed.ring_sector(6)
        block = np.column_stack([sector.ferro, sector.ferro]).astype(complex)
        # the +x ferro state, one sample of N <sigma^x_1> = N
        np.testing.assert_allclose(oracle_ed._measure(sector, block[:, :1]), [[6.0, 0.0, 0.0]], atol=1e-12)
        block[:, 1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match=r"^state not normalized: \|psi\| = "):
            oracle_ed._measure(sector, block)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_lowering_operator_is_projected_full_operator(self, n):
        # sigma^-_1 takes each state with site 1 up (odd s) to s - 1
        full = np.zeros((2**n, 2**n))
        full[np.arange(0, 2**n, 2), np.arange(1, 2**n, 2)] = 1.0
        col, weight = oracle_ed._orbit_basis(n)
        sector = oracle_ed.ring_sector(n)
        e = sector.even
        lower = np.zeros((col.max() + 1,) * 2)
        lower[:e, e:], lower[e:, :e] = sector.lower
        p = isometry(col, weight)
        np.testing.assert_allclose(lower, p.T @ full @ p, rtol=0, atol=1e-15)
