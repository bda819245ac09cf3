"""``farm-sweep``: the dispatch-bound path through ``repro.farm``.

Set-up fills a compile cache with every program of the batch (and the
generated codegen source of the codegen-engine jobs).  One operation is
one job of a batch; each batch runs on a pool of workers started for
it and closed after it, the way one ``repro.tools.farm --cache-dir``
invocation runs.  Simulation per job is short, so time goes to pool
start, farm IPC, compile-cache reads, translation, machine
construction and report collection.

The batch: five small seed-varied generators, each on ``cell``,
``apu`` and ``manycore``, each program twice under two seed-drawn
scheduling policies (compat mode among them), plus a fixed pair of
codegen-engine jobs whose cached codegen source set-up truncates.
``CompileCache.load_text`` returns that text unverified and the codegen
engine ``exec``\\ s it, so those two jobs fail with ``SyntaxError`` in
every batch instead of being recomputed; they are counted as failed
operations until the cache verifies its entries.

Checks, none of them timed: zero compiles in every batch; no job fails
except a truncated one with ``SyntaxError``; every report of a job that
succeeds (a truncated one too, once the cache is mended) is
byte-identical to ``run_jobs_serial`` on the same job without a cache;
printed values match the models (Figure 2, game demo, with accessor
bytes) or the reference interpreter (the other generators).
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from contextlib import ExitStack, contextmanager

from common import (
    SETUP_REPEATS, Layers, Meter, Outcome, end_to_end, run_rounds,
    traced_compile,
)
from models import figure2_model, game_demo_model

import repro.farm.worker as worker
from repro.compiler.cache import CompileCache
from repro.compiler.driver import compile_program
from repro.farm import Farm, FarmJob, program_key, run_jobs_serial
from repro.game.sources import (
    ai_kernel_source,
    figure1_source,
    figure2_source,
    game_demo_source,
    move_loop_source,
)
from repro.machine.config import resolve_target
from repro.machine.machine import Machine
from repro.vm.codegen import CODEGEN_KIND, codegen_cache_key
from repro.vm.compiled import warm_translations

TARGETS = ("cell", "apu", "manycore")
POLICIES = (None, "greedy", "least-loaded", "locality", "critical-path")

#: The jobs whose cached codegen source set-up truncates.  They do not
#: depend on the seed, and no seed-drawn job shares their programs
#: (seed-drawn sizes start at 10).
FAULTY = (
    FarmJob(workload="figure1-truncated", source=figure1_source(6, 4),
            target="cell", engine="codegen"),
    FarmJob(workload="move-loop-truncated",
            source=move_loop_source(object_count=6), target="apu",
            engine="codegen", policy="greedy"),
)

#: Layers that work only while set-up fills the cache.
SETUP_LAYERS = [
    "lang.parse_ms", "lang.sema_ms", "compiler.passes_ms",
    "compiler.cache_store_ms", "compiler.cache_stores",
]
FARM_LAYERS = [
    "farm.pool_start_ms", "farm.retries", "farm.compiles",
    "farm.translations",
]


def make_batch(seed: int) -> tuple[list[FarmJob], dict]:
    """The seed's batch and, per workload name, the model ``Expected``
    or None where the reference interpreter decides.

    The seed draws sizes that barely change the work (pair, particle
    and object counts) and the policies; the job order is fixed, so
    the completion order of a batch does not depend on the seed.
    """
    rng = random.Random(seed)
    jobs, expected = [], {}
    for target in TARGETS:
        p = rng.randrange(8, 13)
        programs = [
            (f"figure2-{target}", figure2_source(16, p, 1),
             figure2_model(16, p, 1)),
        ]
        p, q = rng.randrange(8, 13), rng.randrange(5, 8)
        programs.append(
            (f"game-demo-{target}", game_demo_source(14, p, q, 1),
             game_demo_model(14, p, q, 1))
        )
        programs.append((
            f"ai-kernel-{target}",
            ai_kernel_source(entity_count=rng.randrange(15, 18)), None,
        ))
        accessor = rng.random() < 0.5
        programs.append((
            f"move-loop-{target}",
            move_loop_source(
                object_count=rng.randrange(10, 15), use_accessor=accessor,
                cache="direct" if accessor else None,
            ),
            None,
        ))
        programs.append((
            f"figure1-{target}",
            figure1_source(rng.randrange(10, 15), rng.randrange(5, 8)), None,
        ))
        for workload, source, model in programs:
            expected[workload] = model
            for policy in rng.sample(POLICIES, 2):
                jobs.append(FarmJob(
                    workload=workload, source=source, target=target,
                    policy=policy, seed=seed,
                ))
    for job in FAULTY:
        expected[job.workload] = None
    jobs.extend(FAULTY)
    return jobs, expected


def _fill_cache(jobs: list[FarmJob], cache_dir: str, layers) -> None:
    """Compile every program into ``cache_dir`` (and store codegen
    source for codegen jobs), then truncate the faulty jobs' source."""
    cache = CompileCache(cache_dir)
    faulty_keys = {program_key(job) for job in FAULTY}
    distinct = {program_key(job): job for job in jobs}
    for key, job in distinct.items():
        config = resolve_target(job.target)
        if layers is None:
            program = compile_program(
                job.source, config, job.options, cache=cache
            )
        else:
            program = traced_compile(
                job.source, config, job.options, cache, layers
            )
        if job.resolved_engine() != "codegen":
            continue
        warm_translations(
            program, Machine(config), engine="codegen", cache=cache
        )
        if key in faulty_keys:
            _truncate(cache.aux_path(
                codegen_cache_key(program, config.cost), CODEGEN_KIND
            ))


def _truncate(path: str) -> None:
    """Cut a generated module so that it no longer compiles."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    cut = len(text) // 2
    while cut > 0:
        try:
            compile(text[:cut], path, "exec")
        except SyntaxError:
            break
        cut -= 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text[:cut])


def _references(jobs: list[FarmJob], expected: dict, out: Outcome):
    """The serial run's canonical report per job, and per workload the
    printed values every job of it must show.

    The serial run uses no compile cache, so the truncated jobs succeed
    in it.  Its reports are checked here, once: against the models, or
    against the reference interpreter, whose report must match byte for
    byte once labelled with the same engine.
    """
    unmodelled = [job for job in jobs if expected[job.workload] is None]
    try:
        serial = run_jobs_serial(jobs)
        oracle = run_jobs_serial([
            dataclasses.replace(job, engine="reference")
            for job in unmodelled
        ])
    except Exception as exc:
        out.check(False, f"run_jobs_serial raised {type(exc).__name__}: "
                         f"{exc}")
        return {}, {}
    oracle_by_job = dict(zip(unmodelled, oracle.results))
    reports, printed = {}, {}
    for job, mine in zip(jobs, serial.results):
        reports[job] = _canonical(mine.report)
        values = [value for _core, value in mine.output]
        model = expected[job.workload]
        if model is None:
            ref = oracle_by_job[job]
            want = [value for _core, value in ref.output]
            source = "reference interpreter"
            relabelled = dict(ref.report, engine=mine.report["engine"])
            out.check(
                _canonical(relabelled) == reports[job],
                f"{job.workload} ({job.policy}): report differs from the "
                f"reference interpreter's",
            )
        else:
            want = list(model.printed)
            source = "model"
            config = resolve_target(job.target)
            bytes_in = 0 if config.shared_memory else model.accessor_bytes_in
            moved = mine.report["counters"].get("accessor.bytes_in", 0)
            out.check(
                moved == bytes_in,
                f"{job.workload}: accessor.bytes_in {moved}, model {bytes_in}",
            )
        out.check(
            values == want,
            f"{job.workload}: printed {values}, {source} {want}",
        )
        printed[job.workload] = want
    return reports, printed


def _canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _check_batch(out: Outcome, summary, reports: dict, printed: dict) -> None:
    out.check(summary.compiles == 0,
              f"a timed batch compiled {summary.compiles} programs")
    faulty = set(FAULTY)
    for outcome in summary.results:
        job = outcome.job
        if outcome.status != "ok":
            if job in faulty and outcome.detail.startswith("SyntaxError"):
                continue  # the known fault, counted in ``failed``
            out.check(False, f"{job.workload} failed: {outcome.detail[:200]}")
            continue
        out.check(
            _canonical(outcome.report) == reports.get(job),
            f"{job.workload} ({job.policy}): farm report differs from "
            f"run_jobs_serial",
        )
        values = [value for _core, value in outcome.output]
        out.check(values == printed.get(job.workload),
                  f"{job.workload}: printed {values}, "
                  f"want {printed.get(job.workload)}")


@contextmanager
def _clocked(owner, name: str, layers: Layers, metric: str, after=None):
    """Replace ``owner.name`` for the duration by a wrapper that adds
    each call's wall time to ``metric`` and then calls
    ``after(value, *args)``."""
    original = getattr(owner, name)

    def call(*args, **kwargs):
        start = time.perf_counter()
        value = original(*args, **kwargs)
        layers.add_ms(metric, time.perf_counter() - start)
        if after is not None:
            after(value, *args)
        return value

    setattr(owner, name, call)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _in_process(jobs: list[FarmJob], cache_dir: str, layers: Layers) -> None:
    """Time a worker's layers: run the batch through
    ``repro.farm.worker.execute_job`` in-process, as one worker with a
    fresh memo and cache would, with clocks around the callees it looks
    up at call time (cache load, translation, machine, run, report)."""
    cache = CompileCache(cache_dir)

    def loaded(program, key):
        layers.add("compiler.cache_hits" if program is not None
                   else "compiler.cache_misses", 1)
        if program is not None:
            layers.add_program(program)
            layers.add("ir.artifact_bytes",
                       os.path.getsize(cache.path_for(key)))

    with ExitStack() as stack:
        for owner, name, metric, after in (
            (cache, "load", "compiler.cache_load_ms", loaded),
            (worker, "warm_translations", "vm.translate_ms",
             lambda n, *_: layers.add("vm.functions_translated", n)),
            (worker, "Machine", "machine.build_ms", None),
            (worker, "run_program", "vm.run_ms",
             lambda result, *_: layers.add_run(result)),
            (worker, "collect_report", "obs.report_ms", None),
        ):
            stack.enter_context(
                _clocked(owner, name, layers, metric, after)
            )
        memo: dict = {}
        for job in jobs:
            try:
                worker.execute_job(job, cache=cache, memo=memo)
            except Exception:
                pass  # failed in the farm batch too, which is checked


def run(seed: int, seconds: float, trace: bool, engine: str,
        work: str) -> Outcome:
    out = Outcome()
    workers = min(2, len(os.sched_getaffinity(0)))
    jobs, expected = make_batch(seed)
    layers = Layers() if trace else None
    setup = Meter()
    for repeat in range(SETUP_REPEATS):
        cache_dir = os.path.join(work, f"cache-{repeat}")
        with setup.timed():
            _fill_cache(jobs, cache_dir, layers)
    if layers is not None:
        layers.freeze(SETUP_LAYERS, SETUP_REPEATS)
        layers.reset([
            "compiler.cache_load_ms", "compiler.cache_misses",
            "compiler.cache_hits", "ir.functions", "ir.instructions",
            "ir.artifact_bytes",
        ])
    reports, printed = _references(jobs, expected, out)

    meter = Meter()
    instructions = 0
    batches = 0
    capacity = 0.0
    job_seconds: list[float] = []

    def one_batch(_round: int) -> None:
        nonlocal instructions, batches, capacity
        arrivals: list[float] = []

        def landed(_outcome) -> None:
            arrivals.append(time.perf_counter())

        with meter.timed():
            start = time.perf_counter()
            farm = Farm(workers=workers, cache_dir=cache_dir)
            try:
                if layers is not None:
                    with layers.clock("farm.pool_start_ms"):
                        farm.start()
                summary = farm.run_batch(jobs, on_result=landed)
            finally:
                farm.close()
        for arrival in arrivals:
            meter.latency(arrival - start)
        batches += 1
        out.attempted += summary.jobs
        out.failed += summary.failed
        _check_batch(out, summary, reports, printed)
        ok = [r for r in summary.results if r.status == "ok"]
        if batches == 1:
            instructions = sum(r.report["instructions"] for r in ok)
        if layers is not None:
            job_seconds.extend(r.wall_seconds for r in ok)
            capacity += workers * summary.wall_seconds
            layers.add("farm.retries", summary.retried)
            layers.add("farm.compiles", summary.compiles)
            layers.add("farm.translations", summary.translations)
            _in_process(jobs, cache_dir, layers)

    run_rounds(seconds, meter, one_batch)
    # One ``op_ms_p90`` window is one batch.
    end_to_end(meter, setup, len(jobs), instructions, 1, out)
    if layers is not None:
        layers.freeze(FARM_LAYERS, batches)
        busy = sum(job_seconds)
        layers.fixed["farm.job_ms"] = 1000.0 * busy / len(job_seconds)
        layers.fixed["farm.overhead_ms_per_job"] = (
            1000.0 * (capacity - busy) / out.attempted
        )
        layers.fixed["farm.worker_utilization"] = busy / capacity
        out.layers = layers.per_op(out.attempted)
    out.info.update(workers=workers, batch_jobs=len(jobs), batches=batches)
    return out
