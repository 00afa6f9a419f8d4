"""Benchmark of the isingring package: one workload per process.

Run from the repository root:

    python3 bench/run.py --workload quench_n100 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30

The package is imported from ``src/`` of the same checkout and timed only
from outside, through its public entry points.  With ``--trace 0`` the run
reports the end-to-end metrics listed in ``BENCHMARK.json``; with
``--trace 1`` it alternates untraced passes with passes in which each layer
is wrapped, and reports the per-layer metrics and the tracing overhead.

The process runs single-threaded (``threads=1``, one BLAS thread).  It prints
a table, the environment it ran in, and as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The same
record, with the environment, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("quench_n100", "kick_sparse", "validate_cli")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up repeats per untraced run, spread over it; the fastest is reported
SETUP_REPEATS = 6
#: the CPUs this process may use; timed steps run on each in turn
CPUS = sorted(os.sched_getaffinity(0))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or 'all' to run each, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@contextlib.contextmanager
def alternating_cpus(first=0):
    """Yields ``pin(i)``, which moves the process to the ``first + i``-th CPU.

    Neighbours on a shared host slow one core at a time, for seconds to
    minutes, so timed steps that alternate between the CPUs keep their
    fastest repeat from whichever core was quiet.  All CPUs are usable
    again on exit.
    """
    def pin(i):
        os.sched_setaffinity(0, {CPUS[(first + i) % len(CPUS)]})

    try:
        yield pin
    finally:
        os.sched_setaffinity(0, CPUS)


def time_import() -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import isingring"], cwd=ROOT, env=env,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def clear_dir(path: Path):
    for child in path.iterdir():
        child.unlink()


def time_setup(workload_cls, seed, reference, workdir):
    """The workload, and the time to draw its inputs and make one warm-up call.

    The contraction-kernel cache is emptied first, so the warm-up pays to
    fill it, as the first call of a fresh process does.
    """
    from isingring import wick

    kernel_cache = getattr(wick, "_full_kernel", None)
    clear_dir(workdir)
    if kernel_cache is not None:
        kernel_cache.cache_clear()
    start = time.perf_counter()
    workload = workload_cls(seed, reference)
    workload.warm_up(workdir)
    return workload, time.perf_counter() - start


def run_passes(workload, workdir, seconds, tracer=None, first_cpu=0):
    """Passes until ``seconds`` have gone by; returns durations and outcomes.

    Successive passes run on alternate usable CPUs.
    """
    from workloads import Outcome

    durations, outcomes = [], []
    start = time.perf_counter()
    with alternating_cpus(first_cpu) as pin:
        while not durations or time.perf_counter() - start < seconds:
            pin(len(durations))
            clear_dir(workdir)
            span = tracer.span(workload.entry_layer, "pass") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            elapsed = None
            try:
                with span:
                    output = workload.run(workdir)
                elapsed = time.perf_counter() - t0
                outcome = workload.inspect(output, workdir)
            except Exception:
                # a pass that raises fails all of its operations; the run goes on
                traceback.print_exc(file=sys.stderr)
                outcome = Outcome([False] * workload.ops_per_pass)
            durations.append(elapsed if elapsed is not None else time.perf_counter() - t0)
            outcomes.append(outcome)
    return durations, outcomes


def run_untraced(workload_cls, seed, reference, workdir, seconds):
    """Set-up repeats spread over the run, each followed by a stretch of passes.

    Returns the workload, the set-up time, and the durations and outcomes of
    the passes.  The set-up time is the fastest import plus the fastest
    warm-up.  Interference only adds time, and repeats spread over the whole
    run, like its passes, meet a quiet spell more often than repeats made
    back to back at its start.
    """
    imports, setups, durations, outcomes = [], [], [], []
    for i in range(SETUP_REPEATS):
        with alternating_cpus(i) as pin:
            pin(0)
            imports.append(time_import())
            workload, setup = time_setup(workload_cls, seed, reference, workdir)
        setups.append(setup)
        # each stretch ends on a common clock of pass time, so overruns do not add up
        left = seconds * (i + 1) / SETUP_REPEATS - sum(durations)
        stretch, stretch_outcomes = run_passes(workload, workdir, left, first_cpu=len(durations))
        durations += stretch
        outcomes += stretch_outcomes
    return workload, min(imports) + min(setups), durations, outcomes


def run_traced(workload, workdir, seconds):
    """Untraced and traced passes in turn, each pair on one CPU.

    Returns all durations and outcomes, and the per-layer metrics.
    """
    import tracing

    tracer = tracing.Tracer()
    plain, traced, outcomes = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        pair = len(traced)
        durations, plain_outcomes = run_passes(workload, workdir, 0, first_cpu=pair)
        plain += durations
        with tracing.installed(tracer):
            durations, traced_outcomes = run_passes(workload, workdir, 0, tracer, first_cpu=pair)
        traced += durations
        outcomes += plain_outcomes + traced_outcomes
    overhead = min(traced) / min(plain) - 1.0
    values = tracing.layer_metrics(tracer, len(traced), overhead, traced_outcomes[-1].bytes_written)
    return plain + traced, outcomes, values


def tally(outcomes):
    """``(attempted, failed)`` operations over all passes."""
    attempted = sum(len(o.ok) for o in outcomes)
    return attempted, attempted - sum(sum(o.ok) for o in outcomes)


def end_to_end_metrics(setup_s, durations, workload, outcomes) -> dict:
    """End-to-end metrics of an untraced run; ``pass_s`` is its fastest pass.

    On a shared host the same pass can take up to 1.9 times as long while
    neighbours load its core, in phases lasting seconds to minutes.
    Interference only adds time, so the fastest pass is the estimate it
    shifts least; the median of a run moves with the share of the run the
    neighbours were busy.  The median is kept in the written record.
    """
    attempted, failed = tally(outcomes)
    pass_s = min(durations)
    return {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "sample_s": pass_s / workload.samples_per_pass,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "isingring").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pivot_rtol": importlib.import_module("isingring.pfaffian").PIVOT_RTOL,
    }


def run_all(args) -> int:
    """Every workload untraced and traced, each in a process of its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            *table, last = done.stdout.splitlines() or [""]
            print("\n".join(table), flush=True)
            if done.returncode != 0:
                print(f"error: {name} --trace {trace} exited with {done.returncode}", file=sys.stderr)
                return done.returncode
            result = json.loads(last)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    OUT.mkdir(exist_ok=True)
    (OUT / f"all.seed{args.seed}.json").write_text(json.dumps(combined, indent=2) + "\n",
                                                   encoding="utf-8")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "isingring").is_dir():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    from workloads import WORKLOADS, load_reference

    workload_cls = WORKLOADS[args.workload]
    reference = load_reference()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            workload, _ = time_setup(workload_cls, args.seed, reference, workdir)
            durations, outcomes, values = run_traced(workload, workdir, args.seconds)
            specs = spec["per_layer"]
        else:
            workload, setup_s, durations, outcomes = run_untraced(
                workload_cls, args.seed, reference, workdir, args.seconds)
            values = end_to_end_metrics(setup_s, durations, workload, outcomes)
            specs = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(outcomes)
    # same inputs every pass, traced or not: the outputs must match byte for byte
    identical = len({o.fingerprint for o in outcomes}) == 1
    checks = workload.checks + ["identical output on every pass"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    env = environment(args)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(outcomes)}  "
          f"samples/pass {workload.samples_per_pass}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<28} {failed / attempted:>16.6g} 1  ({failed} of {attempted} operations)")
    print(f"checks: {'; '.join(checks)}; identical={identical}")
    print("env: " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0 and identical, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, env=env, checks=checks, failed_frac=failed / attempted,
                  pass_durations=durations, pass_s_median=statistics.median(durations))
    out_path = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
