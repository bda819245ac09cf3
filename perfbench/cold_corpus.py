"""``cold-corpus``: the compile-bound path, source to canonical report.

The seed draws one corpus of distinct programs: every generator of
``repro.game.sources`` on every registry target (``word_struct_source``
on ``dsp`` only), plus the paper's Figure 1 race on each target with
DMA.  One operation takes one program through the whole path:

1. the static analyses (``CompileOptions(analyze=True)``);
2. a compile into an empty compile cache (a fresh directory);
3. one run on a fresh machine under the default engine, which
   translates every function it calls;
4. the canonical ``RunReport``.

A round is the whole corpus in a seed-shuffled order; runs do whole
rounds.  Parameters vary with the seed only within narrow ranges, so
the cost of a round does not depend much on the seed.

Checks, none of them timed:

* verdicts: no valid program has an error-severity finding, and the
  Figure 1 race is reported as ``E-dma-race`` by the analyses and as a
  race by the run's dynamic checker;
* outputs: Figure 2 and game-demo programs against the pure-Python
  models; every other program against the reference interpreter (the
  project's oracle), whose report must be byte-identical;
* later rounds must reproduce the first round's report bytes.
"""

from __future__ import annotations

import os
import random
import shutil
import time

from common import (
    SETUP_REPEATS, Layers, Meter, Outcome, end_to_end, run_rounds,
    traced_compile,
)
from models import figure2_model, game_demo_model

from repro.compiler.cache import CompileCache
from repro.compiler.driver import CompileOptions, compile_program
from repro.compiler.passes import PassManager
from repro.game.sources import (
    ai_kernel_source,
    component_system_source,
    figure1_racy_source,
    figure1_source,
    figure2_source,
    game_demo_source,
    move_loop_source,
    word_struct_source,
)
from repro.machine.config import resolve_target, target_names
from repro.machine.machine import Machine
from repro.obs.metrics import MetricsHub
from repro.obs.report import collect_report, report_json
from repro.vm.compiled import warm_translations
from repro.vm.interpreter import RunOptions, run_program

#: Targets where the Figure 1 race is a race: they move data by DMA.
DMA_TARGETS = ("cell", "dsp", "manycore")

#: The dynamic race checker records instead of aborting, so the racy
#: program still yields a report.  Engine and scheduling stay default.
RUN_OPTIONS = RunOptions(racecheck="record")


class Entry:
    """One corpus program and what it must do."""

    def __init__(self, kind: str, target: str, source: str,
                 expected=None, racy: bool = False):
        self.kind = kind
        self.target = target
        self.source = source
        self.expected = expected  # a models.Expected, or None: oracle
        self.racy = racy
        self.report: str | None = None  # first round's canonical report
        self.printed: list | None = None


def make_corpus(seed: int) -> list[Entry]:
    rng = random.Random(seed)
    corpus = []
    for target in target_names():
        e, p = rng.randrange(12, 21), rng.randrange(6, 11)
        corpus.append(Entry("figure1", target, figure1_source(e, p)))
        e, p = rng.randrange(47, 50), rng.randrange(28, 37)
        corpus.append(Entry(
            "figure2", target, figure2_source(e, p, 2),
            expected=figure2_model(e, p, 2),
        ))
        for specialized in (False, True):
            n = rng.randrange(12, 15)
            corpus.append(Entry(
                "component-specialized" if specialized else "component",
                target,
                component_system_source(
                    entities_per_type=n, specialized=specialized
                ),
            ))
        corpus.append(Entry(
            "ai-kernel", target,
            ai_kernel_source(entity_count=rng.randrange(46, 51)),
        ))
        for accessor in (False, True):
            corpus.append(Entry(
                "move-loop-accessor" if accessor else "move-loop", target,
                move_loop_source(
                    object_count=rng.randrange(24, 41),
                    use_accessor=accessor,
                    cache="direct" if accessor else None,
                ),
            ))
        e, p = rng.randrange(30, 35), rng.randrange(20, 29)
        q = rng.randrange(14, 19)
        corpus.append(Entry(
            "game-demo", target, game_demo_source(e, p, q, 2),
            expected=game_demo_model(e, p, q, 2),
        ))
        if target in DMA_TARGETS:
            corpus.append(
                Entry("figure1-racy", target, figure1_racy_source(), racy=True)
            )
    corpus.append(Entry(
        "word-struct", "dsp", word_struct_source(rng.randrange(24, 41))
    ))
    return corpus


def _operation(entry: Entry, cache_dir: str, engine: str, layers):
    """One source through analyses, cold compile, run and report.
    Returns (findings, result, report text)."""
    config = resolve_target(entry.target)
    if layers is None:
        findings = PassManager.default().run(
            entry.source, config, CompileOptions(analyze=True)
        ).findings
        program = compile_program(
            entry.source, config, CompileOptions(),
            cache=CompileCache(cache_dir),
        )
        machine = Machine(config)
        hub = MetricsHub()
        machine.attach_metrics(hub)
        result = run_program(program, machine, RUN_OPTIONS)
        report = report_json(collect_report(
            result, workload=entry.kind, hub=hub, engine=engine,
            target=entry.target,
        ))
        return findings, result, report

    # Traced: the same calls, split at each layer's public entry point
    # (``compile_program`` is a cache lookup, the pass pipeline and a
    # store; ``run_program`` translates lazily, so translation is
    # forced first to time it apart).  The pipeline runs twice, as in the
    # untraced operation: once for the analyses, once for the compile;
    # ``lang.*`` and ``compiler.passes_ms`` hold both.
    ctx = PassManager.default().run(
        entry.source, config, CompileOptions(analyze=True)
    )
    layers.add_pass_timings(ctx.timings)
    findings = ctx.findings
    layers.add("analysis.findings", len(findings))
    program = traced_compile(
        entry.source, config, CompileOptions(), CompileCache(cache_dir),
        layers,
    )
    with layers.clock("machine.build_ms"):
        machine = Machine(config)
        hub = MetricsHub()
        machine.attach_metrics(hub)
    if engine != "reference":
        start = time.perf_counter()
        translated = warm_translations(program, machine, engine=engine)
        layers.add_ms("vm.translate_ms", time.perf_counter() - start)
        layers.add("vm.functions_translated", translated)
    with layers.clock("vm.run_ms"):
        result = run_program(program, machine, RUN_OPTIONS)
    with layers.clock("obs.report_ms"):
        report = report_json(collect_report(
            result, workload=entry.kind, hub=hub, engine=engine,
            target=entry.target,
        ))
    layers.add_run(result)
    return findings, result, report


def _oracle_report(entry: Entry, engine: str) -> tuple[str, list]:
    """The reference interpreter's report (labelled with the default
    engine's name, as engines must agree byte for byte) and output."""
    config = resolve_target(entry.target)
    program = compile_program(entry.source, config, CompileOptions())
    machine = Machine(config)
    hub = MetricsHub()
    machine.attach_metrics(hub)
    options = RunOptions(racecheck="record", engine="reference")
    result = run_program(program, machine, options)
    report = report_json(collect_report(
        result, workload=entry.kind, hub=hub, engine=engine,
        target=entry.target,
    ))
    return report, result.printed


def _check(out: Outcome, entry: Entry, findings, result, report: str,
           engine: str) -> None:
    where = f"{entry.kind} on {entry.target}"
    errors = sorted({f.code for f in findings if f.severity == "error"})
    if entry.racy:
        out.check(errors == ["E-dma-race"],
                  f"{where}: analyses found {errors}, want ['E-dma-race']")
        out.check(len(result.races) > 0,
                  f"{where}: the run's race checker saw no race")
    else:
        out.check(not errors, f"{where}: error findings {errors}")
        out.check(not result.races, f"{where}: races {result.races}")
    if entry.report is not None:
        out.check(report == entry.report,
                  f"{where}: report differs from the first round's")
        out.check(result.printed == entry.printed,
                  f"{where}: output differs from the first round's")
        return
    if entry.expected is not None:
        out.check(
            tuple(result.printed) == entry.expected.printed,
            f"{where}: printed {result.printed}, "
            f"model {list(entry.expected.printed)}",
        )
        config = resolve_target(entry.target)
        want = 0 if config.shared_memory else entry.expected.accessor_bytes_in
        moved = result.machine.perf.as_dict().get("accessor.bytes_in", 0)
        out.check(moved == want,
                  f"{where}: accessor.bytes_in {moved}, model {want}")
    else:
        oracle_report, oracle_printed = _oracle_report(entry, engine)
        out.check(result.printed == oracle_printed,
                  f"{where}: printed {result.printed}, reference "
                  f"interpreter printed {oracle_printed}")
        out.check(report == oracle_report,
                  f"{where}: report differs from the reference "
                  f"interpreter's")
    entry.report = report
    entry.printed = result.printed


def run(seed: int, seconds: float, trace: bool, engine: str,
        work: str) -> Outcome:
    out = Outcome()
    layers = Layers() if trace else None
    setup = Meter()
    for repeat in range(SETUP_REPEATS):
        # Set-up draws the corpus and takes one small program through
        # the whole path on every target, so lazily imported modules
        # load before timing.
        with setup.timed():
            corpus = make_corpus(seed)
            for target in target_names():
                cache_dir = os.path.join(work, f"setup-{repeat}-{target}")
                warm = Entry("warm-up", target, figure1_source(4, 2))
                _operation(warm, cache_dir, engine, None)

    meter = Meter()
    instructions = 0
    order = list(range(len(corpus)))
    random.Random(seed).shuffle(order)

    def one_round(round_index: int) -> None:
        nonlocal instructions
        for index in order:
            entry = corpus[index]
            cache_dir = os.path.join(work, f"op-{round_index}-{index}")
            out.attempted += 1
            try:
                with meter.timed(index):
                    findings, result, report = _operation(
                        entry, cache_dir, engine, layers
                    )
            except Exception as exc:
                out.failed += 1
                out.check(False, f"{entry.kind} on {entry.target} raised "
                                 f"{type(exc).__name__}: {exc}")
                continue
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            meter.latency(meter.last)
            if round_index == 0:
                instructions += result.instructions
            _check(out, entry, findings, result, report, engine)

    rounds = run_rounds(seconds, meter, one_round)
    # One ``op_ms_p90`` window is one round: the whole corpus.
    end_to_end(meter, setup, len(corpus), instructions, len(corpus), out)
    if layers is not None:
        out.layers = layers.per_op(out.attempted)
    out.info.update(corpus=len(corpus), rounds=rounds)
    return out
