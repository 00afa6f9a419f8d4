"""Command-line front end: experiments, spectral diagnostics, validation.

Subcommands
-----------
quench    magnetization time series after a sudden field quench
kick      stroboscopic magnetization under periodic delta kicks
gap       parity gap scan over the field strength
deltal    chord-length difference scan
xyz       frustration-free point of the open XYZ chain
validate  exact-diagonalization vs Pfaffian cross-check suite

Every run writes a CSV time series (UTF-8, LF, 17 significant digits) and a
sidecar JSON summary echoing the fully resolved configuration.
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


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % x for x in row) + "\n")


def _write_summary(path, summary):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_path(out_path: str) -> str:
    if out_path.endswith(".csv"):
        return out_path[:-4] + ".summary.json"
    return out_path + ".summary.json"


def refine_extremum(x: np.ndarray, y: np.ndarray, i: int):
    """Three-point parabolic refinement of a discrete extremum at index i."""
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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
    the window still inform the refinement.
    """
    return _windowed_extremum(x, y, window, np.argmin)


def refined_maximum(x, y, window=None):
    """Refined (abscissa, value) of the sampled maximum; see refined_minimum."""
    return _windowed_extremum(x, y, window, np.argmax)


def _ed_deviation(samples, exact) -> np.ndarray:
    """Largest ``|engine - ED|`` of each of (mx, my, mz) over the samples."""
    engine = np.array([[s.mx, s.my, s.mz] for s in samples])
    return np.abs(engine - exact).max(axis=0)


def validate_suite(sizes=(4, 6, 8, 10), g_values=(0.5, 1.0, 1.5), t_max=5.0, dt=0.25,
                   kick_params=(8, 0.5, 0.5, 0.02, 20), tol=VALIDATION_TOL, threads=1):
    """Pointwise ED-vs-Pfaffian comparison; returns a machine-readable report."""
    report = {"tolerance": tol, "cases": [], "passed": True}

    def check(case, driver, schedule, exact):
        samples = run_series(driver, MomentumGrid(case["n_sites"]), schedule, threads=threads)
        dev = _ed_deviation(samples, exact)
        case.update({"max_dev_mx": float(dev[0]), "max_dev_my": float(dev[1]),
                     "max_dev_mz": float(dev[2]), "pass": bool(dev.max() < tol)})
        report["cases"].append(case)
        report["passed"] = report["passed"] and case["pass"]

    times = np.arange(0.0, t_max + dt / 2, dt)
    for n in sizes:
        for g_f in g_values:
            check({"driver": "quench", "n_sites": n, "g_f": g_f}, DriverSpec("quench", g_f=g_f),
                  times, oracle_ed.quench_trajectory(n, g_f, times))
    n, g, tau, eps, n_kicks = kick_params
    check({"driver": "kick", "n_sites": n, "g": g, "tau": tau, "epsilon": eps},
          DriverSpec("kick", g=g, tau=tau, epsilon=eps), range(1, n_kicks + 1),
          oracle_ed.kick_trajectory(n, g, tau, eps, n_kicks))
    return report


def _cmd_quench(args) -> int:
    if not (np.isfinite(args.dt) and args.dt > 0.0):
        raise ValueError(f"--dt must be positive and finite, got {args.dt}")
    if not (np.isfinite(args.tmax) and args.tmax >= 0.0):
        raise ValueError(f"--tmax must be nonnegative and finite, got {args.tmax}")
    if args.validate and args.n > oracle_ed.MAX_SITES:
        raise ValueError(f"--validate requires N <= {oracle_ed.MAX_SITES}")
    n = args.n
    grid = MomentumGrid(n)
    times = np.arange(0.0, args.tmax + args.dt / 2, args.dt)
    samples = run_series(DriverSpec("quench", g_f=args.gf), grid, times, threads=args.threads)
    rows = [(s.time, s.mx / n, s.my / n, s.mz / n) for s in samples]
    _write_csv(args.out, ["t", "mx_over_n", "my_over_n", "mz_over_n"], rows)

    t_arr = np.array([r[0] for r in rows])
    mx_arr = np.array([r[1] for r in rows])
    summary = {"config": _resolved_config(args), "command": "quench"}
    minimum = refined_minimum(t_arr, mx_arr)
    if minimum is not None:
        summary["first_minimum"] = {"t": minimum[0], "mx_over_n": minimum[1]}
        # the rebound after the deepest excursion
        maximum = refined_maximum(t_arr, mx_arr, window=(minimum[0], float(t_arr[-1])))
        if maximum is not None:
            summary["rebound_maximum"] = {"t": maximum[0], "mx_over_n": maximum[1]}
    if args.validate:
        max_dev = float(_ed_deviation(samples, oracle_ed.quench_trajectory(n, args.gf, times)).max())
        summary["validation"] = {"max_abs_deviation": max_dev, "pass": max_dev < VALIDATION_TOL}
    _write_summary(_summary_path(args.out), summary)
    if args.validate and not summary["validation"]["pass"]:
        print("validation failed", file=sys.stderr)
        return 1
    return 0


def _cmd_kick(args) -> int:
    if args.kicks < 1:
        raise ValueError(f"--kicks must be >= 1, got {args.kicks}")
    n = args.n
    grid = MomentumGrid(n)
    schedule = list(range(1, args.kicks + 1))
    samples = run_series(
        DriverSpec("kick", g=args.g, tau=args.tau, epsilon=args.epsilon),
        grid, schedule, threads=args.threads,
    )
    rows = [(s.time, s.mx / n, s.mz / n) for s in samples]
    _write_csv(args.out, ["n", "mx_over_n", "mz_over_n"], rows)
    _write_summary(_summary_path(args.out), {"config": _resolved_config(args), "command": "kick"})
    return 0


def _scan_points(args) -> np.ndarray:
    if not (np.isfinite(args.gmin) and np.isfinite(args.gmax)):
        raise ValueError(f"--gmin and --gmax must be finite, got {args.gmin}, {args.gmax}")
    if args.gsteps < 1:
        raise ValueError(f"--gsteps must be >= 1, got {args.gsteps}")
    return np.linspace(args.gmin, args.gmax, args.gsteps)


def _cmd_gap(args) -> int:
    grid = MomentumGrid(args.n)
    rows = [(g, model.gap_delta(grid, g)) for g in _scan_points(args)]
    _write_csv(args.out, ["g", "delta"], rows)
    _write_summary(_summary_path(args.out), {"config": _resolved_config(args), "command": "gap"})
    return 0


def _cmd_deltal(args) -> int:
    rows = [(x, model.delta_l(x, args.n)) for x in _scan_points(args)]
    _write_csv(args.out, ["x", "delta_l"], rows)
    _write_summary(_summary_path(args.out), {"config": _resolved_config(args), "command": "deltal"})
    return 0


def _cmd_xyz(args) -> int:
    h_star, beta_star, overlap = model.xyz_factorization(args.jx, args.jy, args.jz, args.n)
    _write_csv(args.out, ["h_star", "beta_star", "overlap"], [(h_star, beta_star, overlap)])
    _write_summary(_summary_path(args.out), {
        "config": _resolved_config(args), "command": "xyz",
        "h_star": h_star, "beta_star": beta_star, "overlap": overlap,
    })
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


def _resolved_config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "config") and v is not None}
    return cfg


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

    def common(p, needs_out=True):
        p.add_argument("--config", help="key = value config file; flags override file values")
        p.add_argument("--threads", type=int, default=1, help="worker threads for sample evaluation")
        if needs_out:
            p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("quench", help="sudden-quench magnetization time series")
    common(p)
    p.add_argument("--n", type=int, required=True, help="ring size (even, >= 4)")
    p.add_argument("--gf", type=float, required=True, help="post-quench field")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--validate", action="store_true", help="cross-check against ED (N <= 12)")
    p.set_defaults(func=_cmd_quench)

    p = sub.add_parser("kick", help="stroboscopic magnetization under delta kicks")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--kicks", type=int, required=True)
    p.set_defaults(func=_cmd_kick)

    p = sub.add_parser("gap", help="parity gap scan")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gmin", type=float, default=0.0)
    p.add_argument("--gmax", type=float, default=2.0)
    p.add_argument("--gsteps", type=int, default=101)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("deltal", help="chord-length difference scan")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gmin", type=float, default=0.01)
    p.add_argument("--gmax", type=float, default=3.0)
    p.add_argument("--gsteps", type=int, default=101)
    p.set_defaults(func=_cmd_deltal)

    p = sub.add_parser("xyz", help="XYZ frustration-free point")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jx", type=float, required=True)
    p.add_argument("--jy", type=float, required=True)
    p.add_argument("--jz", type=float, required=True)
    p.set_defaults(func=_cmd_xyz)

    p = sub.add_parser("validate", help="ED-vs-Pfaffian validation suite")
    common(p, needs_out=False)
    p.add_argument("--out", help="optional path for the JSON report")
    p.set_defaults(func=_cmd_validate)

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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
