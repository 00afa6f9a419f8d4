"""Command-line front end: experiments, spectral diagnostics, validation.

Subcommands
-----------
quench    magnetization time series after a sudden field quench
kick      stroboscopic magnetization under periodic delta kicks
gap       parity gap scan over the field strength
deltal    chord-length difference scan
xyz       frustration-free point of the open XYZ chain
validate  exact-diagonalization vs Pfaffian cross-check suite

Every command but ``validate`` writes the CSV ``--out`` (UTF-8, LF, 17
significant digits) and beside it ``<--out without .csv>.summary.json``,
holding ``config`` (the resolved flags), ``command`` (the subcommand) and
the command's own fields: ``first_minimum``, ``rebound_maximum`` and, with
``--validate``, ``validation`` for ``quench``; ``h_star``, ``beta_star`` and
``overlap`` for ``xyz``.  ``validate`` prints its JSON report and writes it
to ``--out`` if given.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import model, oracle_ed
from .dynamics import DriverSpec
from .model import MomentumGrid
from .observables import run_series

__all__ = ["main", "refine_extremum", "refined_minimum", "refined_maximum", "validate_suite"]

FLOAT_FMT = "%.17g"
#: largest engine-vs-ED deviation of a magnetization component that passes validation
VALIDATION_TOL = 1e-8


def _write_outputs(args, header, rows, **fields):
    """Write the CSV at ``args.out`` and its ``.summary.json`` sidecar."""
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % x for x in row) + "\n")
    config = {k: v for k, v in vars(args).items() if k not in ("func", "config") and v is not None}
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    with open(stem + ".summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"config": config, "command": args.command, **fields}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _series(x, y):
    """``x`` and ``y`` as float arrays of one length, at least 1, with finite entries; else ValueError naming them."""
    x, y = model._reals(x, "x"), model._reals(y, "y")
    if len(x) != len(y) or not len(x):
        raise ValueError(f"x and y must be nonempty and of one length, got lengths {len(x)} and {len(y)}")
    return x, y


def refine_extremum(x, y, i: int):
    """Three-point parabolic refinement of a discrete extremum at index i.

    ``x`` and ``y`` are a nonempty series of finite reals, of one length,
    and i an index into them in [0, len(x)); another raises ``ValueError``
    naming i, x or y.  A sample at either end, or on a flat parabola
    (three collinear points), is returned as it is.
    """
    x, y = _series(x, y)
    i = model._integer(i, "i")
    if not 0 <= i < len(x):
        raise ValueError(f"i must lie in [0, {len(x)}), got {i}")
    if i == 0 or i == len(x) - 1:
        return float(x[i]), float(y[i])
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (y0 - 2.0 * y1 + y2)
    if abs(denom) < 1e-300:
        return float(x1), float(y1)
    dx = 0.5 * (x2 - x1) * (y0 - y2) / denom
    xe = x1 + dx
    # parabola value at the refined abscissa
    ye = y1 - 0.125 * (y0 - y2) ** 2 / denom
    return float(xe), float(ye)


def _windowed_extremum(x, y, window, pick):
    x, y = _series(x, y)
    if window is None:
        idx = np.arange(len(x))
    else:
        lo, hi = window
        idx = np.flatnonzero((x >= lo) & (x <= hi))
        if idx.size == 0:
            return None
    i = int(idx[pick(y[idx])])
    return refine_extremum(x, y, i)


def refined_minimum(x, y, window=None):
    """Refined (abscissa, value) of the sampled minimum.

    The discrete argmin (optionally restricted to ``window = (lo, hi)``) is
    sharpened by three-point parabolic interpolation; neighbors just outside
    the window still inform the refinement.  A window holding no sample
    gives None.  ``x`` and ``y`` are checked as :func:`refine_extremum`
    checks them.
    """
    return _windowed_extremum(x, y, window, np.argmin)


def refined_maximum(x, y, window=None):
    """Refined (abscissa, value) of the sampled maximum; see refined_minimum.

    A window holding no sample gives None.
    """
    return _windowed_extremum(x, y, window, np.argmax)


def _ed_deviation(samples, exact) -> np.ndarray:
    """Largest ``|engine - ED|`` of each of (mx, my, mz) over the samples."""
    engine = np.array([[s.mx, s.my, s.mz] for s in samples])
    return np.abs(engine - exact).max(axis=0)


def validate_suite(threads=1):
    """The suite ``isingring validate`` runs: the engine against ED, pointwise.

    Quenches at N = 4, 6, 8, 10 to g_f = 0.5, 1, 1.5, sampled at
    t = 0, 0.25, ..., 5, and 20 kicks of (g, tau, epsilon) = (0.5, 0.5, 0.02)
    at N = 8.  A case passes when every component is within
    ``VALIDATION_TOL`` of ED.  Each ring size's ``MomentumGrid`` and ED
    sector (:func:`isingring.oracle_ed.ring_sector`) are built once, for
    all its cases.  Returns a machine-readable report.
    """
    report = {"tolerance": VALIDATION_TOL, "cases": [], "passed": True}
    rings = {n: (MomentumGrid(n), oracle_ed.ring_sector(n)) for n in (4, 6, 8, 10)}

    def check(case, driver, schedule, exact):
        samples = run_series(driver, rings[case["n_sites"]][0], schedule, threads=threads)
        dev = _ed_deviation(samples, exact)
        case.update({"max_dev_mx": float(dev[0]), "max_dev_my": float(dev[1]),
                     "max_dev_mz": float(dev[2]), "pass": bool(dev.max() < VALIDATION_TOL)})
        report["cases"].append(case)
        report["passed"] = report["passed"] and case["pass"]

    times = 0.25 * np.arange(21)
    for n, (_, sector) in rings.items():
        for g_f in (0.5, 1.0, 1.5):
            check({"driver": "quench", "n_sites": n, "g_f": g_f}, DriverSpec("quench", g_f=g_f),
                  times, oracle_ed.quench_trajectory(n, g_f, times, sector=sector))
    kick = {"g": 0.5, "tau": 0.5, "epsilon": 0.02}
    check({"driver": "kick", "n_sites": 8, **kick}, DriverSpec("kick", **kick), range(1, 21),
          oracle_ed.kick_trajectory(8, n_kicks=20, sector=rings[8][1], **kick))
    return report


def _cmd_quench(args) -> int:
    dt, tmax = model._real(args.dt, "--dt"), model._real(args.tmax, "--tmax", lower=0)
    if not dt > 0.0:
        raise ValueError(f"--dt must be positive and finite, got {dt}")
    if args.validate and args.n > oracle_ed.MAX_SITES:
        raise ValueError(f"--validate requires N <= {oracle_ed.MAX_SITES}")
    n = args.n
    times = np.arange(0.0, tmax + dt / 2, dt)
    samples = run_series(DriverSpec("quench", g_f=args.gf), MomentumGrid(n), times, threads=args.threads)
    mx = np.array([s.mx / n for s in samples])
    # times always holds t = 0, and the rebound window always holds the last sample
    t_min, mx_min = refined_minimum(times, mx)
    t_max, mx_max = refined_maximum(times, mx, window=(t_min, float(times[-1])))
    fields = {"first_minimum": {"t": t_min, "mx_over_n": mx_min},
              "rebound_maximum": {"t": t_max, "mx_over_n": mx_max}}
    if args.validate:
        max_dev = float(_ed_deviation(samples, oracle_ed.quench_trajectory(n, args.gf, times)).max())
        fields["validation"] = {"max_abs_deviation": max_dev, "pass": max_dev < VALIDATION_TOL}
    _write_outputs(args, ["t", "mx_over_n", "my_over_n", "mz_over_n"],
                   [(s.time, s.mx / n, s.my / n, s.mz / n) for s in samples], **fields)
    if args.validate and not fields["validation"]["pass"]:
        print("validation failed", file=sys.stderr)
        return 1
    return 0


def _cmd_kick(args) -> int:
    n, kicks = args.n, model._integer(args.kicks, "--kicks", lower=1)
    samples = run_series(DriverSpec("kick", g=args.g, tau=args.tau, epsilon=args.epsilon),
                         MomentumGrid(n), range(1, kicks + 1), threads=args.threads)
    _write_outputs(args, ["n", "mx_over_n", "mz_over_n"], [(s.time, s.mx / n, s.mz / n) for s in samples])
    return 0


def _scan_points(args) -> np.ndarray:
    gmin, gmax = model._real(args.gmin, "--gmin"), model._real(args.gmax, "--gmax")
    return np.linspace(gmin, gmax, model._integer(args.gsteps, "--gsteps", lower=1))


def _cmd_gap(args) -> int:
    grid = MomentumGrid(args.n)
    _write_outputs(args, ["g", "delta"], [(g, model.gap_delta(grid, g)) for g in _scan_points(args)])
    return 0


def _cmd_deltal(args) -> int:
    _write_outputs(args, ["x", "delta_l"], [(x, model.delta_l(x, args.n)) for x in _scan_points(args)])
    return 0


def _cmd_xyz(args) -> int:
    h_star, beta_star, overlap = model.xyz_factorization(args.jx, args.jy, args.jz, args.n)
    _write_outputs(args, ["h_star", "beta_star", "overlap"], [(h_star, beta_star, overlap)],
                   h_star=h_star, beta_star=beta_star, overlap=overlap)
    return 0


def _cmd_validate(args) -> int:
    report = validate_suite(threads=args.threads)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    print(text)
    if not report["passed"]:
        failing = [c for c in report["cases"] if not c["pass"]]
        print(f"{len(failing)} case(s) failed validation", file=sys.stderr)
        return 1
    return 0


#: store_true flags, which a config file turns on with a true value
_SWITCHES = ("validate",)


def _config_argv(path: str) -> list:
    """The flags that a ``key = value`` (or ``key: value``) config file stands for."""
    argv = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, val = line.split("=", 1)
            elif ":" in line:
                key, val = line.split(":", 1)
            else:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = key.strip(), val.strip()
            if key not in _SWITCHES:
                argv.append(f"--{key}={val}")
            elif val.lower() in ("1", "true", "yes"):
                argv.append(f"--{key}")
    return argv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isingring", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, floats=(), threads=False, csv=True):
        """A subcommand with ``--config``, ``--out`` and, for CSV output, ``--n`` and the ``floats``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value config file; flags override file values")
        if threads:
            p.add_argument("--threads", type=int, default=1, help="worker threads for sample evaluation")
        if not csv:
            p.add_argument("--out", help="optional path for the JSON report")
            return p
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--n", type=int, required=True, help="ring size (even, >= 4)")
        for flag in floats:
            p.add_argument(f"--{flag}", type=float, required=True)
        return p

    p = command("quench", _cmd_quench, "sudden-quench magnetization time series", ("gf", "tmax", "dt"),
                threads=True)
    p.add_argument("--validate", action="store_true", help="cross-check against ED (N <= 12)")
    p = command("kick", _cmd_kick, "stroboscopic magnetization under delta kicks", ("g", "tau", "epsilon"),
                threads=True)
    p.add_argument("--kicks", type=int, required=True)
    for name, func, help, gmin, gmax in (("gap", _cmd_gap, "parity gap scan", 0.0, 2.0),
                                         ("deltal", _cmd_deltal, "chord-length difference scan", 0.01, 3.0)):
        p = command(name, func, help)
        p.add_argument("--gmin", type=float, default=gmin)
        p.add_argument("--gmax", type=float, default=gmax)
        p.add_argument("--gsteps", type=int, default=101)
    command("xyz", _cmd_xyz, "XYZ frustration-free point", ("jx", "jy", "jz"))
    command("validate", _cmd_validate, "ED-vs-Pfaffian validation suite", threads=True, csv=False)
    return parser


def _with_config(argv: list) -> list:
    """``argv`` with the ``--config`` file's flags placed right after the subcommand.

    argparse then converts and checks them like typed flags, and the flags
    typed after the subcommand, which come later, win.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not (known.config and known.command):
        return argv
    at = argv.index(known.command) + 1
    return argv[:at] + _config_argv(known.config) + argv[at:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_with_config(argv))
        return args.func(args)
    except SystemExit as exc:  # argparse's exit on a bad flag or config key
        return exc.code
    except (ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
