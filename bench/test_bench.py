"""Tests of the benchmark itself: the gate bites and tracing leaves no trace.

    python3 -m pytest bench

They run every workload at a tiny size, in-process.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from isingring import observables  # noqa: E402
from workloads import (  # noqa: E402
    KickSparse,
    QuenchSeries,
    ValidateCli,
    driver_key,
    reference_rows,
)

TINY = {
    "quench_n100": lambda seed, ref: QuenchSeries(seed, ref, n_sites=8, samples=2),
    "kick_sparse": lambda seed, ref: KickSparse(seed, ref, n_sites=8, kicks=200, samples=4),
    "validate_cli": lambda seed, ref: ValidateCli(seed, ref),
}


def tiny_workload(name, seed=3):
    """The workload at a tiny size, gated against a series recorded now."""
    workload = TINY[name](seed, None)
    if name == "validate_cli":
        return workload
    rows = reference_rows(workload.driver, workload.n_sites, workload.schedule)
    reference = {driver_key(workload.driver, workload.n_sites): {r[0]: tuple(r[1:]) for r in rows}}
    return TINY[name](seed, reference)


def one_pass(workload, workdir, tracer=None):
    workload.warm_up(workdir)
    _, outcomes = run.run_passes(workload, workdir, seconds=0, tracer=tracer)
    return outcomes[0]


def failed_frac(outcome):
    return 1.0 - sum(outcome.ok) / len(outcome.ok)


@pytest.mark.parametrize("name", sorted(TINY))
def test_gate_passes_the_package_as_it_is(name, tmp_path):
    workload = tiny_workload(name)
    outcome = one_pass(workload, tmp_path)
    assert len(outcome.ok) == workload.ops_per_pass
    assert failed_frac(outcome) == 0.0
    if name != "validate_cli":
        assert any(c.startswith("reference") for c in workload.checks)


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_term_sign_fails_every_operation(name, tmp_path, monkeypatch):
    # negative control: a corrupted engine must fail the whole gate
    workload = tiny_workload(name)
    monkeypatch.setattr(observables, "_TERM_SIGNS", (-1.0, 1.0, 1.0))
    assert failed_frac(one_pass(workload, tmp_path)) == 1.0


def test_tracing_restores_and_leaves_output_byte_identical(tmp_path):
    workload = tiny_workload("validate_cli")
    before = one_pass(workload, tmp_path).fingerprint
    originals = [getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = one_pass(workload, tmp_path, tracer).fingerprint
    restored = [getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.PATCHES]
    assert all(r is o for r, o in zip(restored, originals))
    assert traced == before
    assert one_pass(workload, tmp_path).fingerprint == before
    assert json.loads(before)["passed"] is True


def test_traced_run_fills_every_layer(tmp_path):
    workload = tiny_workload("validate_cli")
    workload.warm_up(tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, (outcome,) = run.run_passes(workload, tmp_path, seconds=0, tracer=tracer)
    metrics = tracing.layer_metrics(tracer, 1, 0.0, outcome.bytes_written)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    # one traced pass of the suite: one state and one sample per compared point,
    # one ED trajectory per case
    assert metrics["observables.samples"] == workload.samples_per_pass
    assert metrics["dynamics.calls"] == workload.samples_per_pass
    assert metrics["oracle_ed.calls"] == workload.ops_per_pass
    assert metrics["observables.words_per_sample"] == metrics["wick.calls"] / workload.samples_per_pass
    assert metrics["pfaffian.calls"] >= metrics["wick.calls"] > 0
    assert metrics["dynamics.mode_steps"] > metrics["dynamics.calls"]
    assert metrics["cli.bytes_written"] > 0
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.self_s"] > 0


def test_end_to_end_metrics_match_the_spec(tmp_path):
    workload = tiny_workload("quench_n100")
    outcome = one_pass(workload, tmp_path)
    metrics = run.end_to_end_metrics(0.5, [0.25, 0.75], workload, [outcome])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    assert metrics["sample_s"] == 0.125
    assert metrics["ok_frac"] == 1.0
