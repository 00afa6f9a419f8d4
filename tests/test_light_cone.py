"""A cross-size oracle: inside the light cone the per-site magnetization does not depend on N.

After a quench or a few kicks from the product state, correlations spread
at a finite speed (the Lieb-Robinson bound, Commun. Math. Phys. 28, 251
(1972)).  Until they wrap around the ring, a ring of ``N_ED`` sites and
one of hundreds have the same per-site (mx, my, mz) to rounding.  Dense
exact diagonalization at ``N_ED``, which shares no code with the Pfaffian
engine, therefore checks the engine at sizes ED cannot reach.  The sizes
put the bordered elimination (dimension 2N - 1) on both sides of the
switch to blocked panels and of the panel edges.
"""

import functools

import numpy as np
import pytest

from isingring import oracle_ed
from isingring.dynamics import DriverSpec
from isingring.model import MomentumGrid
from isingring.observables import run_series

N_ED = 10
SIZES = [48, 64, 66, 100, 130, 400]
#: largest per-site deviation of any of (mx, my, mz)
TOL = 1e-12
QUENCH_FIELDS = [0.5, 1.5]
#: (g, tau, epsilon), sampled after kicks 1 and 2
KICK_DRIVES = [(0.5, 0.5, 0.02), (1.5, 0.3, 0.1)]
KICKS = [1, 2]


def quench_times(g_f):
    """Three sample times up to the conservative window t <= N_ED / (16 max(g_f, 1))."""
    return np.linspace(0.0, N_ED / (16.0 * max(g_f, 1.0)), 4)[1:]


@functools.lru_cache(maxsize=None)
def ed_quench(g_f):
    return oracle_ed.quench_trajectory(N_ED, g_f, quench_times(g_f)) / N_ED


@functools.lru_cache(maxsize=None)
def ed_kicks(drive):
    return oracle_ed.kick_trajectory(N_ED, *drive, KICKS[-1])[np.array(KICKS) - 1] / N_ED


def per_site(driver, n, schedule):
    samples = run_series(driver, MomentumGrid(n), schedule)
    return np.array([[s.mx, s.my, s.mz] for s in samples]) / n


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("g_f", QUENCH_FIELDS)
def test_quench_matches_small_ring_ed(g_f, n):
    engine = per_site(DriverSpec("quench", g_f=g_f), n, quench_times(g_f))
    assert np.abs(engine - ed_quench(g_f)).max() < TOL


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("drive", KICK_DRIVES, ids=lambda d: "g={}-tau={}-eps={}".format(*d))
def test_kicks_match_small_ring_ed(drive, n):
    g, tau, epsilon = drive
    engine = per_site(DriverSpec("kick", g=g, tau=tau, epsilon=epsilon), n, KICKS)
    assert np.abs(engine - ed_kicks(drive)).max() < TOL
