"""Run one benchmark workload and print its metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload frame-sim --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it, prefixed ``perfbench-host:``, records the host,
the resolved default engine and the run's own throughput.  Exit code 0
means the run completed; it still reports ``"correct": false`` when an
output did not match its check.  Any other exit code means the
benchmark could not run, and no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Variables that would silently change what a run measures: the
#: default engine, a process-wide compile cache and the default target.
CLEARED_ENV = ("REPRO_VM_ENGINE", "REPRO_COMPILE_CACHE", "REPRO_TARGET")

WORKLOADS = ("frame-sim", "cold-corpus", "farm-sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_workload(name: str):
    """Import the program under test and the workload module.

    The environment is cleaned first: the engine default is read when
    ``repro.vm.interpreter`` is imported.
    """
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    from common import ROOT

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro  # noqa: F401  (fails here when the sources are absent)

    if name == "frame-sim":
        import frame_sim as module
    elif name == "cold-corpus":
        import cold_corpus as module
    else:
        import farm_sweep as module
    return module


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds: farm workers are joined and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, HERE)
    try:
        module = load_workload(args.workload)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from common import END_TO_END, PER_LAYER, work_dir
    from repro.vm.interpreter import DEFAULT_ENGINE, validate_engine

    engine = validate_engine(DEFAULT_ENGINE, source="REPRO_VM_ENGINE")
    with work_dir(args.workload) as work:
        outcome = module.run(
            args.seed, args.seconds, bool(args.trace), engine, work
        )

    values = outcome.layers if args.trace else outcome.end_to_end
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    host = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "default_engine": engine,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # Also printed by traced runs: traced against untraced
        # throughput is the tracing overhead.
        "ops_per_s": outcome.end_to_end["ops_per_s"],
        **outcome.info,
    }
    print("perfbench-host: " + json.dumps(host, sort_keys=True))
    for problem in outcome.problems:
        print(f"perfbench: WRONG: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
