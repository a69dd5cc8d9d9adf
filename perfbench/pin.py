"""Regenerate the pinned correctness values in ``pins.json``.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --scale bench --seeds 42 2026
    python3 perfbench/pin.py --scale tiny --seeds 42

For every workload, benchmark seed and instance of that seed, this runs
the spec through ``run_experiment`` -- the program's own path from spec
to result -- and records the digest, flow count and event count.  The
benchmark draws its flow list itself, so a pin also checks that its
inputs are the ones ``run_experiment`` would use.  Existing pins for
other scales or seeds are kept.
"""

from __future__ import annotations

import argparse
import json

import suite


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Regenerate pinned digests.")
    p.add_argument("--scale", default="bench")
    p.add_argument("--seeds", type=int, nargs="+", default=[42])
    args = p.parse_args(argv)
    suite.ensure_program_importable()
    from repro.experiments.runner import run_experiment
    from repro.validate import run_digest

    pins = suite.load_pins() if suite.PINS_PATH.exists() else {}
    for name in suite.WORKLOADS:
        for seed in args.seeds:
            for sim_seed in suite.instance_seeds(seed):
                result = run_experiment(suite.make_workload_spec(name, sim_seed, args.scale))
                pin = {
                    "digest": run_digest(result),
                    "n_flows": result.n_flows,
                    "events": result.events_processed,
                }
                pins.setdefault(name, {}).setdefault(args.scale, {})[str(sim_seed)] = pin
                print(name, args.scale, sim_seed, pin, flush=True)
    suite.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
