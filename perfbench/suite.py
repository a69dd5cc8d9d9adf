"""Workload definitions, input generation and correctness checks.

The benchmark drives the simulator only through its public entry
points (``make_spec``, ``build_simulation``, ``run_flow_list``,
``standard_auditors``, ``run_digest``) plus the public flow generator of
``repro.workloads``: the benchmark draws the flow list from the seed and
the program receives only that list.  ``perfbench/tests`` checks that
this flow list reproduces ``run_experiment``'s digest for the same spec.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
OUT_DIR = BENCH_DIR / "out"

#: How many simulation instances one benchmark seed expands to.  Event
#: counts differ between seeds of one workload (standard deviation about
#: 8% on websearch and 17% on datamining), so a run that measured a
#: single instance would carry that spread into ``run_s``; a run
#: measures each of these instances and averages them.  Five
#: datamining instances take about 35 s on a 2-core Xeon, which sets
#: ``run_seconds`` in ``BENCHMARK.json``.
INSTANCES_PER_SEED = 5
#: Distance between the simulation seeds of one benchmark seed's
#: instances (instance 0 is the benchmark seed itself).
INSTANCE_STRIDE = 1009


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    traffic: str  # repro.workloads distribution name
    audit: bool
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "websearch-phost",
            "phost",
            "websearch",
            False,
            "fig3 headline: pHost on 350 websearch flows; the protocol layer "
            "does the most work",
        ),
        Workload(
            "websearch-pfabric",
            "pfabric",
            "websearch",
            False,
            "same flows with pFabric: priority-drop queues do the most work, "
            "the pHost agent code is bypassed",
        ),
        Workload(
            "datamining-phost-audit",
            "phost",
            "datamining",
            True,
            "fig5 pHost on 500 datamining flows with the standard auditors: "
            "the only workload with real instrumentation work",
        ),
    )
}


def ensure_program_importable() -> None:
    """Put the program's ``src`` on ``sys.path``; raise when it is missing."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"program sources not found at {SRC_DIR}: run the benchmark "
            "from the root of a checkout of the repository"
        )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def instance_seeds(seed: int) -> List[int]:
    """Simulation seeds measured for one benchmark seed, in run order."""
    return [seed + i * INSTANCE_STRIDE for i in range(INSTANCES_PER_SEED)]


def make_workload_spec(name: str, sim_seed: int, scale: str = "bench"):
    """The :class:`ExperimentSpec` of one workload instance."""
    from repro.experiments.defaults import make_spec
    from repro.validate import standard_auditors

    w = WORKLOADS[name]
    instruments = standard_auditors() if w.audit else ()
    return make_spec(w.protocol, w.traffic, scale, seed=sim_seed, instruments=instruments)


def make_flows(spec, access_bps: float, n_hosts: int):
    """Draw the spec's flow list with the public generator.

    Mirrors what ``run_experiment`` does for an all-to-all spec with
    no trace, tenants, deadlines, coflows or load profile: the same
    RNG streams in the same order, so the digest is the same.
    """
    from repro.sim import SeededRng
    from repro.workloads import WORKLOADS as DISTRIBUTIONS
    from repro.workloads import AllToAll, FlowGenerator

    dist = DISTRIBUTIONS[spec.workload]()
    if spec.max_flow_bytes is not None and spec.max_flow_bytes < dist.max_bytes:
        dist = dist.truncated(spec.max_flow_bytes)
    gen = FlowGenerator(dist, AllToAll(n_hosts), access_bps, spec.load, SeededRng(spec.seed))
    return gen.generate(spec.n_flows)


def load_pins(path: Optional[Path] = None) -> dict:
    """``{workload: {scale: {sim_seed: {digest, n_flows, events}}}}``."""
    path = PINS_PATH if path is None else Path(path)
    return json.loads(path.read_text())


def pin_for(pins: dict, workload: str, scale: str, sim_seed: int) -> Optional[dict]:
    return pins.get(workload, {}).get(scale, {}).get(str(sim_seed))


def check_result(result, digest: str, expected_flows: int, audit: bool, pin: Optional[dict]):
    """Failure reasons for one finished simulation (empty when it passed).

    A run fails when a flow is left incomplete, when the audit reports
    a violation, or when a pin exists for its seed and the digest or
    flow count differs.  ``events_processed`` is pinned too, but a
    mismatch there is a warning (see :func:`check_warnings`): the digest
    does not fix the event count, so a faster engine may change it.
    """
    reasons = []
    if result.n_flows != expected_flows:
        reasons.append(f"ran {result.n_flows} flows, spec asked for {expected_flows}")
    if result.n_completed != result.n_flows:
        reasons.append(f"{result.n_flows - result.n_completed} of {result.n_flows} flows incomplete")
    if audit:
        if result.audit is None:
            reasons.append("auditors attached but no audit report returned")
        elif not result.audit.ok:
            reasons.append(f"audit reported {result.audit.total_violations} violation(s)")
    if pin is not None:
        if digest != pin["digest"]:
            reasons.append(f"digest {digest[:12]} differs from pinned {pin['digest'][:12]}")
        if result.n_flows != pin["n_flows"]:
            reasons.append(f"flow count {result.n_flows} differs from pinned {pin['n_flows']}")
    return reasons


def check_warnings(events: int, pin: Optional[dict]) -> List[str]:
    if pin is not None and events != pin["events"]:
        return [f"events_processed {events} differs from pinned {pin['events']}"]
    return []
