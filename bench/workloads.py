"""The benchmark's workloads: seeded inputs, one public call per pass, a gate.

Every workload draws its inputs from a seed and hands only those inputs to
the package, through a public entry point (``run_series`` or ``cli.main``).
The seed picks *which* times or kick counts are sampled, never how many, so runs with different seeds do nearly the same work.
Passes are kept short (about 0.3 to 1.5 s): the benchmark reports the
fastest pass of a run, and short passes give it more chances to fall in a
quiet spell of a shared host.

The correctness gate counts one operation per magnetization sample (per
validation case for ``validate_cli``).  An operation fails when its pass
raises, when a value is not finite or exceeds the ring size, or when it
misses the recorded reference by more than ``REFERENCE_TOL`` per site.
The reference tables in ``reference.json`` cover every input a seed can
draw, so the reference check applies to every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

from isingring import cli, observables
from isingring.dynamics import DriverSpec
from isingring.model import MomentumGrid

#: largest deviation per site from the recorded reference series
REFERENCE_TOL = 1e-9
#: tolerance of every case of the ED-vs-Pfaffian validation suite
ED_TOL = 1e-8

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: quench_n100 quenches to this field; its sample times are drawn from a
#: lattice on [0, 60]
QUENCH_G_F = 0.5
QUENCH_DT = 0.5
QUENCH_STEPS = 120
#: kick_sparse drive; its sample counts are multiples of the stride up to
#: its last kick
KICK_G = 0.5
KICK_TAU = 0.5
KICK_EPSILON = 0.02
KICK_STRIDE = 50


def load_reference(path=REFERENCE_PATH) -> dict:
    """Reference series keyed by driver, each a map ``x -> (mx, my, mz)``."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {key: {row[0]: tuple(row[1:]) for row in rows} for key, rows in raw.items()}


def driver_key(driver: DriverSpec, n_sites: int) -> str:
    if driver.kind == "quench":
        return f"quench n={n_sites} g_f={driver.g_f!r}"
    return f"kick n={n_sites} g={driver.g!r} tau={driver.tau!r} epsilon={driver.epsilon!r}"


def reference_rows(driver: DriverSpec, n_sites: int, schedule) -> list:
    """``[x, mx, my, mz]`` rows of the series the package computes now."""
    samples = observables.run_series(driver, MomentumGrid(n_sites), schedule, threads=1)
    return [[s.time, s.mx, s.my, s.mz] for s in samples]


class Outcome:
    """What the gate and the tracer learn from one pass."""

    def __init__(self, ok, fingerprint=b"", bytes_written=0):
        self.ok = list(ok)
        self.fingerprint = fingerprint
        self.bytes_written = bytes_written


def _series_ok(rows, n_sites, table):
    """Per-row verdicts for ``(x, mx, my, mz)`` rows."""
    verdicts = []
    for x, *values in rows:
        ref = table.get(x) if table is not None else None
        ok = True
        for i, value in enumerate(values):
            if not math.isfinite(value) or abs(value) > n_sites * (1.0 + REFERENCE_TOL):
                ok = False
            elif ref is not None and abs(value - ref[i]) > REFERENCE_TOL * n_sites:
                ok = False
        verdicts.append(ok and (table is None or ref is not None))
    return verdicts


def _series_checks(table) -> list:
    checks = ["finite", "|m| <= N"]
    if table is not None:
        checks.append(f"reference within {REFERENCE_TOL:g} per site")
    return checks


def _written(workdir: Path, stdout: str) -> int:
    return sum(p.stat().st_size for p in workdir.iterdir()) + len(stdout.encode())


class _Series:
    """A workload whose pass is one ``run_series`` call."""

    entry_layer = "observables"

    def _draw(self, driver, n_sites, schedule, reference):
        self.n_sites = n_sites
        self.driver = driver
        self.grid = MomentumGrid(n_sites)
        self.schedule = schedule
        self.samples_per_pass = self.ops_per_pass = len(schedule)
        self.table = (reference or {}).get(driver_key(driver, n_sites))
        self.checks = _series_checks(self.table)

    def run(self, workdir):
        return observables.run_series(self.driver, self.grid, self.schedule, threads=1)

    def inspect(self, samples, workdir) -> Outcome:
        rows = [(s.time, s.mx, s.my, s.mz) for s in samples]
        ok = _series_ok(rows, self.n_sites, self.table)
        if [r[0] for r in rows] != self.schedule:
            ok = [False] * self.samples_per_pass
        return Outcome(ok, repr(rows).encode())


class QuenchSeries(_Series):
    """``run_series`` quench at fixed N; the seed draws the sample time.

    One sample per pass, the shortest public call at N = 100.
    """

    name = "quench_n100"

    def __init__(self, seed, reference=None, n_sites=100, samples=1):
        steps = sorted(random.Random(seed).sample(range(QUENCH_STEPS + 1), samples))
        self._draw(DriverSpec("quench", g_f=QUENCH_G_F), n_sites,
                   [QUENCH_DT * s for s in steps], reference)

    @staticmethod
    def reference_schedule():
        return [QUENCH_DT * s for s in range(QUENCH_STEPS + 1)]

    def warm_up(self, workdir):
        observables.run_series(self.driver, self.grid, self.schedule[:1], threads=1)


class KickSparse(_Series):
    """``run_series`` kicks: a long fixed run sampled at seed-drawn counts."""

    name = "kick_sparse"

    def __init__(self, seed, reference=None, n_sites=40, kicks=500, samples=2):
        picks = sorted(random.Random(seed).sample(range(1, kicks // KICK_STRIDE), samples - 1))
        # the last sample is always at the final kick, so every seed steps
        # the same number of kicks
        schedule = [KICK_STRIDE * p for p in picks] + [kicks]
        self._draw(DriverSpec("kick", g=KICK_G, tau=KICK_TAU, epsilon=KICK_EPSILON), n_sites,
                   schedule, reference)

    @staticmethod
    def reference_schedule(kicks=500):
        return list(range(KICK_STRIDE, kicks + 1, KICK_STRIDE))

    def warm_up(self, workdir):
        observables.run_series(self.driver, self.grid, [1], threads=1)


class ValidateCli:
    """``isingring validate``: the ED-vs-Pfaffian suite, fixed by the package."""

    name = "validate_cli"
    entry_layer = "cli"
    checks = [f"report passed, every case within {ED_TOL:g} of ED", "exit code 0"]

    def __init__(self, seed, reference=None):
        # the suite takes no inputs, so the seed has nothing to draw; the
        # sizes of a pass are learnt from the warm-up
        self.samples_per_pass = self.ops_per_pass = None

    def run(self, workdir):
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            rc = cli.main(["validate", "--threads", "1", "--out", str(workdir / "report.json")])
        return rc, captured.getvalue()

    def warm_up(self, workdir):
        """One full suite; also counts its cases and the samples they compare."""
        counted = []
        original = cli.run_series

        def counting(*args, **kwargs):
            samples = original(*args, **kwargs)
            counted.append(len(samples))
            return samples

        cli.run_series = counting
        try:
            self.run(workdir)
        finally:
            cli.run_series = original
        self.samples_per_pass = sum(counted)
        self.ops_per_pass = len(json.loads((workdir / "report.json").read_bytes())["cases"])

    def inspect(self, output, workdir) -> Outcome:
        rc, stdout = output
        data = (workdir / "report.json").read_bytes()
        report = json.loads(data)
        ok = [
            case["pass"] and max(case["max_dev_mx"], case["max_dev_my"], case["max_dev_mz"]) < ED_TOL
            for case in report["cases"]
        ]
        if rc != 0 or not report["passed"]:
            ok = [False] * len(ok)
        return Outcome(ok, data, _written(workdir, stdout))


WORKLOADS = {w.name: w for w in (QuenchSeries, KickSparse, ValidateCli)}
