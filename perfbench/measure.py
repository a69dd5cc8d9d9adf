"""One measured simulation, or one cold set-up, in a fresh process.

Usage (normally launched by ``run.py``)::

    python3 perfbench/measure.py --workload websearch-phost --sim-seed 42 [--trace | --setup-only]

Prints one JSON object on its last stdout line: set-up and run times,
peak RSS, exact counters, the run digest and the correctness verdict.
With ``--trace`` the layers are wrapped in span recorders first (see
``layers.py``), the per-layer split is added and the kept spans are
written under ``perfbench/out/``.  With ``--setup-only`` the process
sets the instance up, reports the set-up times and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional

import layers
import suite

#: The traced run fails its self-check when the layers' self times and
#: its measured run time differ by more than this share of the run time.
#: ``run_flow_list`` is itself a span, so the sum can fall short only by
#: time in callbacks whose module maps to no layer (``layers.OTHER``).
#: Time in unwrapped code inside a wrapped call is not caught here: it
#: counts as the caller's self time (see METHOD.md).
SELF_CHECK_BOUND = 0.02
#: Cold set-ups one ``--setup-only`` process takes.
SETUP_FORKS = 8


def _absent(what: str, absent: List[str]) -> None:
    absent.append(what)
    print(f"perfbench: warning: counter {what} is absent", file=sys.stderr)


def exact_counters(ctx, result) -> dict:
    """Deterministic counts read from the program's state after a run.

    Optional counters that a refactor may remove (wheel, pool, port and
    switch totals) are left out and listed under ``absent``.
    """
    absent: List[str] = []
    pkts = result.data_pkts_injected + result.control_pkts_sent
    out = {
        "events": result.events_processed,
        "pkts": pkts,
        "n_flows": result.n_flows,
        "control_pkts": result.control_pkts_sent,
        "data_pkts": result.data_pkts_injected,
        "retx_pkts": result.data_pkts_retransmitted,
        "drops": result.drops.total_drops,
    }
    wheel = getattr(ctx.env, "wheel", None)
    if wheel is not None and hasattr(wheel, "scheduled_total") and hasattr(wheel, "cancelled_total"):
        out["timer_scheduled"] = wheel.scheduled_total
        out["timer_cancelled"] = wheel.cancelled_total
    else:
        _absent("EventLoop.wheel scheduled_total/cancelled_total", absent)
    pool = getattr(ctx, "pool", None)
    if pool is not None and hasattr(pool, "allocated") and hasattr(pool, "reused"):
        out["pool_allocated"] = pool.allocated
        out["pool_reused"] = pool.reused
    else:
        _absent("SimContext.pool allocated/reused", absent)
    fabric = ctx.fabric
    all_ports = getattr(fabric, "all_ports", None)
    if all_ports is not None:
        out["port_pkts_sent"] = sum(p.pkts_sent for p in all_ports())
    else:
        _absent("Fabric.all_ports", absent)
    switches = [
        n for n in list(getattr(fabric, "tors", [])) + list(getattr(fabric, "cores", []))
        if hasattr(n, "pkts_forwarded")
    ]
    if switches:
        out["switch_pkts_forwarded"] = sum(s.pkts_forwarded for s in switches)
    else:
        _absent("Fabric.tors/cores pkts_forwarded", absent)
    out["absent"] = absent
    return out


def set_up(spec, build, make_flows):
    """Fabric, agents and flow list, from a spec to a ready run.

    ``setup_s`` is the process CPU time of the whole set-up: it is
    single-threaded, and CPU time leaves out the waits a shared machine
    adds to wall time.  The wall times are kept beside it.
    """
    c0 = time.process_time()
    t0 = time.perf_counter()
    ctx = build(spec)
    t1 = time.perf_counter()
    flows = make_flows(spec, ctx.fabric.config.access_bps, ctx.fabric.config.n_hosts)
    t2 = time.perf_counter()
    c2 = time.process_time()
    times = {"setup_s": c2 - c0, "setup_wall_s": t2 - t0, "build_s": t1 - t0, "flows_s": t2 - t1}
    return ctx, flows, times


def measure_setup(workload: str, sim_seed: int, scale: str = "bench") -> dict:
    """:data:`SETUP_FORKS` cold set-ups of one workload instance.

    Each runs in a process forked from this one after the entry modules
    are imported, so it starts from the state a fresh process reaches
    after imports, for a fraction of the cost of starting one.
    """
    from repro.experiments.runner import build_simulation

    spec = suite.make_workload_spec(workload, sim_seed, scale)
    samples, failures = [], []
    for _ in range(SETUP_FORKS):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the forked child: one set-up, its times, exit
            status = 1
            try:
                os.close(read_fd)
                _, _, times = set_up(spec, build_simulation, suite.make_flows)
                os.write(write_fd, json.dumps(times).encode())
                status = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            out = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not out:
            failures.append(f"forked set-up exited with status {status}")
            continue
        samples.append(json.loads(out))
    return {
        "workload": workload, "scale": scale, "sim_seed": sim_seed, "traced": False,
        "setup_only": True,
        "setup_samples": [t["setup_s"] for t in samples],
        "setup_wall_samples": [t["setup_wall_s"] for t in samples],
        "failures": failures, "warnings": [],
    }


def measure(workload: str, sim_seed: int, scale: str = "bench", trace: bool = False,
            pins: Optional[dict] = None, spans_path: Optional[Path] = None) -> dict:
    """Set up and run one workload instance; returns the record."""
    from repro.experiments.runner import build_simulation, run_flow_list
    from repro.validate import run_digest

    w = suite.WORKLOADS[workload]
    spec = suite.make_workload_spec(workload, sim_seed, scale)

    recorder = None
    restore, absent = (lambda: None), []
    build, make_flows, run = build_simulation, suite.make_flows, run_flow_list
    if trace:
        recorder = layers.SpanRecorder()
        restore, absent = layers.install(recorder)
        build = recorder.wrap(build_simulation, "experiments", "build_simulation")
        make_flows = recorder.wrap(suite.make_flows, "workloads", "make_flows")
        run = recorder.wrap(run_flow_list, "experiments", "run_flow_list")

    ctx, flows, setup_times = set_up(spec, build, make_flows)
    before = recorder.snapshot() if recorder is not None else None
    c0 = time.process_time()
    w0 = time.perf_counter()
    result = run(spec, flows, ctx)
    w1 = time.perf_counter()
    c1 = time.process_time()
    restore()

    digest = run_digest(result)
    pin = suite.pin_for(suite.load_pins() if pins is None else pins, workload, scale, sim_seed)
    reasons = suite.check_result(result, digest, spec.n_flows, w.audit, pin)
    counters = exact_counters(ctx, result)
    record = {
        "workload": workload,
        "scale": scale,
        "sim_seed": sim_seed,
        "traced": trace,
        "setup_only": False,
        **setup_times,
        "run_s": w1 - w0,
        "run_cpu_s": c1 - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest,
        "pinned": pin is not None,
        "counters": counters,
        "failures": reasons,
        "warnings": suite.check_warnings(result.events_processed, pin),
    }
    if recorder is not None:
        after = recorder.snapshot()
        layer_self = {k: after["layers"][k][0] - before["layers"][k][0] for k in after["layers"]}
        layer_calls = {k: after["layers"][k][1] - before["layers"][k][1] for k in after["layers"]}
        name_calls = {
            k: v - before["names"].get(k, 0) for k, v in after["names"].items()
            if v - before["names"].get(k, 0)
        }
        for verb in ("push", "pop"):
            wrapped = [
                name for name in recorder.names
                if name.endswith("." + verb) and recorder.layer_of_name(name) == "net.queues"
            ]
            if wrapped:
                counters[f"queue_{verb}"] = sum(name_calls.get(name, 0) for name in wrapped)
        attributed = sum(v for k, v in layer_self.items() if k != layers.OTHER)
        residual = abs(attributed - record["run_s"]) / record["run_s"]
        record["layers"] = {"self_s": layer_self, "calls": layer_calls, "name_calls": name_calls}
        record["absent_entry_points"] = absent
        record["unattributed_frac"] = residual
        if residual > SELF_CHECK_BOUND:
            reasons.append(
                f"layer self times sum to {attributed:.4f} s against run_s "
                f"{record['run_s']:.4f} s ({residual:.1%} > {SELF_CHECK_BOUND:.0%})"
            )
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(recorder.span_records()))
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    p.add_argument("--sim-seed", type=int, required=True)
    p.add_argument("--scale", default="bench")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", type=Path, default=None)
    args = p.parse_args(argv)

    suite.ensure_program_importable()
    # The entry points' modules are imported outside every timed region.
    # Modules the program imports lazily on its first build count as
    # set-up, as they do for a user's first run in a process.
    import repro.experiments.runner  # noqa: F401
    import repro.validate  # noqa: F401
    import repro.workloads  # noqa: F401

    if args.setup_only:
        record = measure_setup(args.workload, args.sim_seed, args.scale)
    else:
        record = measure(args.workload, args.sim_seed, args.scale, args.trace,
                         spans_path=args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
