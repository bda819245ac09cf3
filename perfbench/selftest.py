"""Self-test: a wrong answer must fail the run, and a mended one pass.

Runs one short round of each workload with a deliberately wrong model
(one frame too many), and of ``farm-sweep`` also with a serial
reference report altered by one byte, and checks that each run reports
the mismatch.  Checks that an operation that raises on ``cold-corpus``
is counted as failed while the run goes on, and that ``farm-sweep``
passes with no failed operation when its cache entries are left whole,
as they are once the cache verifies what it loads.  Also checks that
``BENCHMARK.json`` names the workloads and metrics the runner prints.
Exit code 0 when all checks pass.

Usage (from the checkout root)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import WORKLOADS, load_workload  # noqa: E402


def _one_frame_too_many(model):
    def wrong(*args):
        *rest, frames = args
        return model(*rest, frames + 1)
    return wrong


def _caught(name: str, module, needle: str, engine: str) -> bool:
    from common import work_dir

    with work_dir("selftest") as work:
        outcome = module.run(1, 0.01, False, engine, work)
    caught = any(needle in problem for problem in outcome.problems)
    verdict = "caught" if caught else "MISSED"
    print(f"{name}: {verdict}: {outcome.problems[:1]}")
    return caught


def _counted(name: str, module, engine: str, failures: int) -> bool:
    """One short run must end with ``failures`` failed operations and a
    problem recorded for each of them, or no problem when there is
    none."""
    from common import work_dir

    with work_dir("selftest") as work:
        outcome = module.run(1, 0.01, False, engine, work)
    ok = (
        outcome.attempted > 0
        and outcome.failed == failures
        and len(outcome.problems) == failures
    )
    print(f"{name}: {'as expected' if ok else 'WRONG'}: "
          f"{outcome.failed} of {outcome.attempted} failed, "
          f"problems {outcome.problems[:1]}")
    return ok


def _spec_matches() -> bool:
    from common import END_TO_END, PER_LAYER, ROOT

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    ok = (
        tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
        and {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        and {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    )
    print(f"BENCHMARK.json: {'matches' if ok else 'DIFFERS FROM'} the runner")
    return ok


def main() -> int:
    ok = _spec_matches()
    engine = None
    for name in WORKLOADS:
        module = load_workload(name)
        if engine is None:
            from repro.vm.interpreter import DEFAULT_ENGINE
            engine = DEFAULT_ENGINE
        figure2, demo = module.figure2_model, module.game_demo_model
        module.figure2_model = _one_frame_too_many(figure2)
        module.game_demo_model = _one_frame_too_many(demo)
        try:
            ok &= _caught(f"{name} model", module, "model", engine)
        finally:
            module.figure2_model, module.game_demo_model = figure2, demo

    farm = load_workload("farm-sweep")
    references = farm._references

    def altered(*args):
        reports, printed = references(*args)
        job = next(iter(reports))
        reports[job] = reports[job].replace(":", ": ", 1)
        return reports, printed

    farm._references = altered
    try:
        ok &= _caught("farm-sweep report", farm, "run_jobs_serial", engine)
    finally:
        farm._references = references

    cold = load_workload("cold-corpus")
    operation = cold._operation

    def raising(entry, *args):
        if entry.kind == "ai-kernel" and entry.target == "cell":
            raise RuntimeError("injected")
        return operation(entry, *args)

    cold._operation = raising
    try:
        ok &= _counted("cold-corpus raising", cold, engine, 1)
    finally:
        cold._operation = operation

    truncate = farm._truncate
    farm._truncate = lambda path: None
    try:
        ok &= _counted("farm-sweep whole cache", farm, engine, 0)
    finally:
        farm._truncate = truncate
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
