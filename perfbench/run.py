"""The repository benchmark: host cost of the paper's bench-scale fabric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload websearch-phost --seed 42 --seconds 40 --trace 0

Each simulation runs in a fresh child process (``measure.py``), one at a
time, so set-up is cold and peak RSS belongs to the workload.  A run
measures each of the seed's instances (``suite.instance_seeds``) once,
each followed by a few set-up-only children, then repeats the instances
in order while another simulation fits in ``--seconds``.  It reports the
end-to-end metrics (see ``end_to_end``).

``--trace 1`` instead repeats untraced/traced pairs of the seed's first
instance while another pair fits in ``--seconds``, and reports the
per-layer split (see ``METHOD.md``).

Every run's digest is checked against ``pins.json`` when its seed is
pinned, and against the other runs of its seed when not.  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a metric the program no longer provides is
marked ``"absent": true``.  Full records go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import suite

#: A run must end within this many seconds; a child still running
#: when the budget is spent is killed and counted as failed.
RUN_BUDGET_S = 170.0
#: A new child starts only if this much budget remains.
MIN_CHILD_BUDGET_S = 60.0

END_TO_END = (
    ("run_s", "s"),
    ("run_cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("pkts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics whose time is reported as self seconds and share.
TIMED_LAYERS = ("sim", "net.port", "net.switch", "net.queues", "net.pool", "protocols", "metrics")

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in TIMED_LAYERS]
    + [(f"{layer}.share", "frac") for layer in TIMED_LAYERS + ("validate",)]
    + [
        ("sim.events", "count"),
        ("sim.events_per_pkt", "ratio"),
        ("sim.timer_cancel_frac", "frac"),
        ("net.port.calls", "count"),
        ("net.port.pkts_sent", "count"),
        ("net.switch.calls", "count"),
        ("net.switch.pkts_forwarded", "count"),
        ("net.queues.push", "count"),
        ("net.queues.pop", "count"),
        ("net.queues.drop_frac", "frac"),
        ("net.pool.reuse_frac", "frac"),
        ("protocols.calls", "count"),
        ("protocols.ctrl_per_flow", "ratio"),
        ("protocols.retx_frac", "frac"),
        ("metrics.calls", "count"),
        ("validate.calls", "count"),
        ("workloads.setup_s", "s"),
        ("experiments.build_s", "s"),
        ("experiments.result_s", "s"),
        ("trace.overhead", "ratio"),
        ("trace.unattributed_frac", "frac"),
    ]
)


def run_child(workload: str, sim_seed: int, scale: str, deadline: float, mode: str = "",
              spans_out: Optional[Path] = None) -> dict:
    """One ``measure.py`` process; a crash becomes a failed record.

    ``mode`` is ``""`` (a simulation), ``"--trace"`` or ``"--setup-only"``.
    """
    cmd = [sys.executable, str(suite.BENCH_DIR / "measure.py"), "--workload", workload,
           "--sim-seed", str(sim_seed), "--scale", scale]
    if mode:
        cmd.append(mode)
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    base = {"workload": workload, "sim_seed": sim_seed, "traced": mode == "--trace",
            "setup_only": mode == "--setup-only"}
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=suite.REPO_ROOT)
    except subprocess.TimeoutExpired:
        return {**base, "failures": [f"child timed out after {timeout:.0f} s"], "warnings": []}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {**base, "failures": [f"child exited {proc.returncode}: {tail[0]}"], "warnings": []}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {**base, "failures": [f"unreadable child output: {lines[-1][:80]}"], "warnings": []}


def mark_digest_drift(records: List[dict]) -> None:
    """Fail every run of a seed whose runs disagree on the digest."""
    digests: Dict[int, set] = defaultdict(set)
    for r in records:
        if "digest" in r:
            digests[r["sim_seed"]].add(r["digest"])
    for r in records:
        if len(digests.get(r["sim_seed"], ())) > 1:
            r["failures"].append("digest differs between runs of the same seed")


def per_run_values(r: dict) -> dict:
    c = r["counters"]
    return {
        "run_s": r["run_s"],
        "run_cpu_s": r["run_cpu_s"],
        "events_per_s": c["events"] / r["run_s"],
        "pkts_per_s": c["pkts"] / r["run_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }


#: Run-time metrics are the mean over instances of each instance's
#: median, so every run weighs the same fixed set of instances alike.
#: Set-up and memory are the median over all simulations of the run.
PER_INSTANCE = ("run_s", "run_cpu_s", "events_per_s", "pkts_per_s")


def end_to_end(records: List[dict]) -> Dict[str, Optional[float]]:
    """End-to-end metrics of an untraced run; None where nothing was measured.

    ``setup_s`` is the median over the set-up-only children's samples.
    """
    rows = [(r["sim_seed"], per_run_values(r)) for r in records if "run_s" in r]
    setups = [x for r in records for x in r.get("setup_samples", ())]
    by_seed: Dict[int, List[dict]] = defaultdict(list)
    for seed, values in rows:
        by_seed[seed].append(values)
    out: Dict[str, Optional[float]] = {name: None for name, _ in END_TO_END}
    if setups:
        out["setup_s"] = statistics.median(setups)
    if not rows:
        return out
    for name, _ in END_TO_END:
        if name in PER_INSTANCE:
            out[name] = statistics.fmean(
                statistics.median(v[name] for v in vals) for vals in by_seed.values()
            )
        elif name != "setup_s":
            out[name] = statistics.median(v[name] for _, v in rows)
    return out


def _frac(num: float, den: float) -> Optional[float]:
    """``num / den``; None (absent) when nothing was counted."""
    return num / den if den else None


def per_layer_values(untraced: dict, traced: dict) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one untraced/traced pair; None when absent.

    When an entry point the tracer wraps is missing, its time counts as
    its caller's self time, so no layer's time can be trusted: every
    time metric is absent, and so are the calls of the layer that lost
    the entry point.
    """
    c = traced["counters"]
    self_s = traced["layers"]["self_s"]
    calls = traced["layers"]["calls"]
    run_s = traced["run_s"]
    missing = {layer for layer, _ in traced["absent_entry_points"]}
    v: Dict[str, Optional[float]] = {}
    for layer in TIMED_LAYERS:
        v[f"{layer}.self_s"] = None if missing else self_s[layer]
    for layer in TIMED_LAYERS + ("validate",):
        v[f"{layer}.share"] = None if missing else self_s[layer] / run_s
    for layer in ("net.port", "net.switch", "protocols", "metrics", "validate"):
        v[f"{layer}.calls"] = None if layer in missing else calls[layer]
    v["sim.events"] = c["events"]
    v["sim.events_per_pkt"] = c["events"] / c["pkts"]
    v["sim.timer_cancel_frac"] = (
        _frac(c["timer_cancelled"], c["timer_scheduled"]) if "timer_scheduled" in c else None
    )
    v["net.port.pkts_sent"] = c.get("port_pkts_sent")
    v["net.switch.pkts_forwarded"] = c.get("switch_pkts_forwarded")
    v["net.queues.push"] = c.get("queue_push")
    v["net.queues.pop"] = c.get("queue_pop")
    v["net.queues.drop_frac"] = _frac(c["drops"], c["queue_push"]) if "queue_push" in c else None
    v["net.pool.reuse_frac"] = (
        _frac(c["pool_reused"], c["pool_allocated"] + c["pool_reused"])
        if "pool_reused" in c else None
    )
    v["protocols.ctrl_per_flow"] = c["control_pkts"] / c["n_flows"]
    v["protocols.retx_frac"] = _frac(c["retx_pkts"], c["data_pkts"])
    v["workloads.setup_s"] = traced["flows_s"]
    v["experiments.build_s"] = traced["build_s"]
    v["experiments.result_s"] = None if missing else self_s["experiments"]
    v["trace.overhead"] = run_s / untraced["run_s"]
    v["trace.unattributed_frac"] = None if missing else traced["unattributed_frac"]
    return v


def per_layer(pairs: List[tuple]) -> Dict[str, Optional[float]]:
    measured = [per_layer_values(u, t) for u, t in pairs if "layers" in t and "run_s" in u]
    out: Dict[str, Optional[float]] = {}
    for name, _ in PER_LAYER:
        vals = [m[name] for m in measured if m.get(name) is not None]
        out[name] = statistics.median(vals) if vals else None
    return out


def run_untraced(args, deadline: float) -> List[dict]:
    """Every instance once, each followed by set-up-only children, then
    repeats of the instances while ``--seconds`` allow."""
    seeds = suite.instance_seeds(args.seed)
    records: List[dict] = []
    start = time.monotonic()
    last = 0.0
    i = 0
    while i < len(seeds) or time.monotonic() - start + last <= args.seconds:
        if i and deadline - time.monotonic() < MIN_CHILD_BUDGET_S:
            break
        seed = seeds[i % len(seeds)]
        t = time.monotonic()
        records.append(run_child(args.workload, seed, args.scale, deadline))
        last = time.monotonic() - t
        if i < len(seeds):
            records.append(run_child(args.workload, seed, args.scale, deadline, "--setup-only"))
        i += 1
    return records


def run_traced(args, deadline: float) -> List[tuple]:
    # Only the benchmark seed itself, so the exact counters are those of
    # one simulation and repeat exactly between commits.
    seed = args.seed
    pairs: List[tuple] = []
    start = time.monotonic()
    last = 0.0
    while not pairs or time.monotonic() - start + last <= args.seconds:
        if pairs and deadline - time.monotonic() < 2 * MIN_CHILD_BUDGET_S:
            break
        spans = suite.OUT_DIR / f"spans-{args.workload}-{args.scale}-{seed}.json"
        t0 = time.monotonic()
        u = run_child(args.workload, seed, args.scale, deadline)
        t = run_child(args.workload, seed, args.scale, deadline, "--trace", spans)
        last = time.monotonic() - t0
        if "digest" in u and "digest" in t and u["digest"] != t["digest"]:
            t["failures"].append("traced digest differs from the untraced one")
        pairs.append((u, t))
    return pairs


def report(metrics: Dict[str, Optional[float]], units, records: List[dict]) -> dict:
    """Print the readable table and return the result object.

    ``attempted`` counts the simulations, plus any set-up-only child
    that failed; ``failed`` counts those of them that failed.  A metric
    that is None is reported with ``"absent": true`` (and value 0).
    """
    counted = [r for r in records if not r.get("setup_only") or r["failures"]]
    failed = sum(1 for r in counted if r["failures"])
    attempted = len(counted)
    for r in counted:
        kind = " (traced)" if r["traced"] else " (set-up only)" if r.get("setup_only") else ""
        for reason in r["failures"]:
            print(f"FAILED seed {r['sim_seed']}{kind}: {reason}")
        for warning in r["warnings"]:
            print(f"warning: seed {r['sim_seed']}: {warning}", file=sys.stderr)
    out = {}
    for name, unit in units:
        value = metrics[name]
        if value is None:
            print(f"perfbench: warning: metric {name} is absent", file=sys.stderr)
            print(f"  {name:28s} absent")
            out[name] = {"value": 0.0, "unit": unit, "absent": True}
        else:
            print(f"  {name:28s} {value:.6g} {unit}")
            out[name] = {"value": value, "unit": unit}
    print(f"  {'fail_frac':28s} {failed / attempted:.6g} frac ({failed} of {attempted} runs)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", default="bench", help="program scale preset (tests use tiny)")
    args = p.parse_args(argv)

    try:
        suite.ensure_program_importable()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    print(f"perfbench: {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}")

    if args.trace:
        pairs = run_traced(args, deadline)
        records = [r for pair in pairs for r in pair]
        mark_digest_drift(records)
        result = report(per_layer(pairs), PER_LAYER, records)
    else:
        records = run_untraced(args, deadline)
        mark_digest_drift(records)
        result = report(end_to_end(records), END_TO_END, records)

    suite.OUT_DIR.mkdir(parents=True, exist_ok=True)
    dump = suite.OUT_DIR / f"result-{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps({"result": result, "records": records}, indent=1))
    # A printed result carries its own verdict in ``correct``/``failed``.
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
