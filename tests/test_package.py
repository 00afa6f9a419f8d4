"""Package-level checks: every exported name resolves, so no removed name
lingers in an ``__all__``, and the library runs on its declared dependencies."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["isingring"] + [
    f"isingring.{name}"
    for name in ("cli", "dynamics", "model", "observables", "oracle_ed", "pfaffian", "wick")
])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_pfaffian_submodule_is_not_shadowed():
    import isingring.pfaffian as P

    assert inspect.ismodule(P)
    assert callable(P.pfaffian)


def test_library_never_imports_scipy():
    # scipy and mpmath are test-only dependencies: a sample and a gap on the Poisson series
    # (3.9e-32 at N = 100, g = 0.5, far below a chord sum's roundoff) need numpy alone
    code = "\n".join([
        "import sys",
        "import isingring",
        "grid = isingring.MomentumGrid(100)",
        "isingring.run_series(isingring.DriverSpec('quench', g_f=0.5), grid, [1.0])",
        "assert 0.0 < isingring.gap_delta(grid, 0.5) < 1e-20",
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))",
        "assert 'mpmath' not in sys.modules",
        # the thread pool is imported only for threads > 1
        "assert 'concurrent.futures' not in sys.modules",
        # the ED oracle and the command line are loaded only by the CLI and the tests
        "assert 'isingring.oracle_ed' not in sys.modules",
        "assert 'isingring.cli' not in sys.modules",
        "assert 'argparse' not in sys.modules",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, check=True)


def test_no_module_level_buffers():
    # the engine keeps no memory between calls: a workspace lives one run_series call at most
    import numpy as np

    from isingring import DriverSpec, MomentumGrid, dynamics, observables, pfaffian, run_series, wick

    run_series(DriverSpec("quench", g_f=0.5), MomentumGrid(100), [0.5, 1.0], threads=2)
    for module in (observables, wick, pfaffian, dynamics):
        for name, value in vars(module).items():
            if name == "__builtins__":
                continue
            held = list(value.values()) if isinstance(value, dict) else (
                list(value) if isinstance(value, (list, tuple, set)) else [value])
            assert not any(isinstance(x, (np.ndarray, pfaffian.Workspace)) for x in held), (module.__name__, name)
