"""Tests of the benchmark itself, at the program's ``tiny`` scale.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402

suite.ensure_program_importable()

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=REPO_ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def test_benchmark_json_lists_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]} == set(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(suite.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    proc, result = _bench("--workload", workload, "--seed", "42", "--seconds", "0.5",
                          "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "fail_frac" in proc.stdout
    if trace == "1":
        spans = json.loads((suite.OUT_DIR / f"spans-{workload}-tiny-42.json").read_text())
        assert spans["fields"] == ["span", "name", "start_s", "end_s", "parent_span"]
        assert 0 < spans["spans_kept"] <= spans["spans_total"]
        assert all(start <= end for _, _, start, end, _ in spans["spans"])


def test_validate_layer_works_only_under_audit():
    shares = {}
    for workload in ("websearch-phost", "datamining-phost-audit"):
        _, result = _bench("--workload", workload, "--seed", "42", "--seconds", "0.5",
                           "--trace", "1", "--scale", "tiny")
        shares[workload] = result["metrics"]["validate.share"]["value"]
    assert shares["websearch-phost"] == 0.0
    assert shares["datamining-phost-audit"] > 0.0


@pytest.mark.parametrize("workload", list(suite.WORKLOADS))
def test_benchmark_inputs_reproduce_run_experiment(workload):
    from repro.experiments.runner import run_experiment
    from repro.validate import run_digest

    sim_seed = 7  # not pinned: compared directly
    record = measure.measure(workload, sim_seed, "tiny", pins={})
    reference = run_experiment(suite.make_workload_spec(workload, sim_seed, "tiny"))
    assert record["digest"] == run_digest(reference)
    assert record["counters"]["events"] == reference.events_processed


def test_wrong_pinned_digest_counts_as_failed(capsys):
    pins = suite.load_pins()
    for pin in pins["websearch-phost"]["tiny"].values():
        pin["digest"] = "0" * 64
    records = [measure.measure("websearch-phost", seed, "tiny", pins=pins)
               for seed in suite.instance_seeds(42)]
    run.mark_digest_drift(records)
    result = run.report(run.end_to_end(records), run.END_TO_END, records)
    out = capsys.readouterr().out
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == len(suite.instance_seeds(42))
    assert "differs from pinned" in out
    assert re.search(rf"fail_frac\s+1 frac \({result['failed']} of", out)


def test_incomplete_run_counts_as_failed(monkeypatch):
    good = measure.measure("websearch-phost", 42, "tiny")
    assert good["failures"] == []
    # A simulated-time guard far below the flows' arrival window leaves
    # flows incomplete.
    make_spec = suite.make_workload_spec
    monkeypatch.setattr(suite, "make_workload_spec",
                        lambda *a: make_spec(*a).variant(max_sim_time=1e-5))
    cut = measure.measure("websearch-phost", 42, "tiny")
    assert any("incomplete" in reason for reason in cut["failures"])
    result = run.report(run.end_to_end([cut, good]), run.END_TO_END, [cut, good])
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_failed_setup_sample_counts_as_failed():
    ok = {"sim_seed": 1, "traced": False, "setup_only": True, "setup_samples": [0.05],
          "failures": [], "warnings": []}
    crashed = {"sim_seed": 1, "traced": False, "setup_only": True,
               "failures": ["child exited 1: boom"], "warnings": []}
    sim = measure.measure("websearch-phost", 42, "tiny")
    result = run.report(run.end_to_end([sim, ok, crashed]), run.END_TO_END, [sim, ok, crashed])
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_digest_drift_between_runs_of_a_seed_fails_them():
    a = {"sim_seed": 5, "digest": "a", "failures": []}
    b = {"sim_seed": 5, "digest": "b", "failures": []}
    c = {"sim_seed": 6, "digest": "c", "failures": []}
    run.mark_digest_drift([a, b, c])
    assert a["failures"] and b["failures"] and not c["failures"]


def test_missing_entry_point_and_counters_are_reported_absent(capsys):
    from repro.net.port import Port

    kick = Port.__dict__["kick"]
    del Port.kick
    try:
        restore, absent = layers.install(layers.SpanRecorder())
        restore()
    finally:
        Port.kick = kick
    assert ["net.port", "repro.net.port.Port.kick"] in absent
    assert "Port.kick (net.port) is absent" in capsys.readouterr().err

    result = types.SimpleNamespace(
        data_pkts_injected=1, control_pkts_sent=1, events_processed=4, n_flows=1,
        data_pkts_retransmitted=0, drops=types.SimpleNamespace(total_drops=0),
    )
    ctx = types.SimpleNamespace(env=object(), fabric=object())
    counters = measure.exact_counters(ctx, result)
    assert len(counters["absent"]) == 4
    traced = {"run_s": 2.0, "flows_s": 0.1, "build_s": 0.1, "unattributed_frac": 0.0,
              "absent_entry_points": [],
              "counters": {**counters, "queue_push": 1, "queue_pop": 1},
              "layers": {"self_s": dict.fromkeys(layers.LAYERS, 0.2),
                         "calls": dict.fromkeys(layers.LAYERS, 1)}}
    values = run.per_layer_values({"run_s": 1.0}, traced)
    assert values["sim.timer_cancel_frac"] is None
    assert values["net.pool.reuse_frac"] is None
    assert values["net.port.self_s"] == 0.2 and values["net.port.calls"] == 1

    # A missing entry point's time lands in its caller: no time metric
    # can be trusted, nor the calls of the layer that lost it.
    traced["absent_entry_points"] = [["net.port", "repro.net.port.Port.kick"]]
    values = run.per_layer_values({"run_s": 1.0}, traced)
    time_metrics = [n for n, _ in run.PER_LAYER if n.endswith((".self_s", ".share"))]
    assert all(values[n] is None for n in time_metrics)
    assert values["net.port.calls"] is None and values["net.switch.calls"] == 1


def test_absent_metrics_and_empty_ratios_are_marked_absent():
    assert run._frac(0, 0) is None
    metrics = dict.fromkeys((name for name, _ in run.PER_LAYER), 1.0)
    metrics["sim.timer_cancel_frac"] = None
    record = {"sim_seed": 1, "traced": True, "failures": [], "warnings": []}
    result = run.report(metrics, run.PER_LAYER, [record])
    assert result["metrics"]["sim.timer_cancel_frac"]["absent"] is True
    assert "absent" not in result["metrics"]["sim.events"]


def test_tracer_restores_the_program():
    from repro.net.port import Port
    from repro.sim.engine import EventLoop

    before = (Port.__dict__["send"], EventLoop.__dict__["schedule_at"])
    restore, _ = layers.install(layers.SpanRecorder())
    assert Port.__dict__["send"] is not before[0]
    restore()
    assert (Port.__dict__["send"], EventLoop.__dict__["schedule_at"]) == before


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = _bench("--workload", "websearch-phost", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
