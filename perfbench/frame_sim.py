"""``frame-sim``: the simulation-bound path.

Set-up compiles two programs for ``cell`` and translates them for the
default engine.  One operation then simulates both, each on a fresh
machine: a large Figure 2 frame loop (96 entities, one frame, about
0.6M simulated instructions) and the whole-frame game demo (48
entities, two frames).  One frame keeps an operation near 0.2 s, so
a run has enough operations for a 90th percentile.
Host time goes to the execution engine and the runtime services it
calls (accessor DMA, direct and set-associative software caches,
domain dispatch); compile, cache and farm do no work in the timed
part.

The seed varies only inputs that barely change the work: the Figure 2
collision-pair count and the demo's pair and particle counts.
"""

from __future__ import annotations

import random
import time

from common import SETUP_REPEATS, Layers, Meter, Outcome, end_to_end, run_rounds
from models import figure2_model, game_demo_model

from repro.compiler.driver import CompileOptions, compile_program
from repro.compiler.passes import PassManager
from repro.game.sources import figure2_source, game_demo_source
from repro.machine.config import resolve_target
from repro.machine.machine import Machine
from repro.vm.compiled import warm_translations
from repro.vm.interpreter import run_program

TARGET = "cell"

#: Operations per window of ``op_ms_p90`` (see ``common.end_to_end``):
#: a 30 s run has 5 to 8 windows.
P90_WINDOW = 20

#: Layers that work only while setting up on this workload.
SETUP_LAYERS = [
    "lang.parse_ms", "lang.sema_ms", "compiler.passes_ms",
    "ir.functions", "ir.instructions",
    "vm.translate_ms", "vm.functions_translated",
]


def make_inputs(seed: int) -> list[tuple[str, str, object]]:
    """(name, source, expected) for the two simulated programs."""
    rng = random.Random(seed)
    pairs = rng.randrange(48, 81)
    demo_pairs = rng.randrange(24, 41)
    particles = rng.randrange(16, 25)
    return [
        (
            "figure2",
            figure2_source(entity_count=96, pair_count=pairs, frames=1),
            figure2_model(96, pairs, 1),
        ),
        (
            "game-demo",
            game_demo_source(
                entity_count=48, pair_count=demo_pairs,
                particles=particles, frames=2,
            ),
            game_demo_model(48, demo_pairs, particles, 2),
        ),
    ]


def _set_up(inputs, config, engine: str, layers) -> list:
    """Compile and translate every program, then simulate the demo once
    so lazily imported runtime code is loaded before timing."""
    programs = []
    for _name, source, _expected in inputs:
        if layers is None:
            program = compile_program(source, config, CompileOptions())
        else:
            ctx = PassManager.default().run(source, config, CompileOptions())
            layers.add_pass_timings(ctx.timings)
            program = ctx.program
            layers.add_program(program)
        if engine != "reference":
            start = time.perf_counter()
            translated = warm_translations(
                program, Machine(config), engine=engine
            )
            if layers is not None:
                layers.add_ms("vm.translate_ms", time.perf_counter() - start)
                layers.add("vm.functions_translated", translated)
        programs.append(program)
    run_program(programs[-1], Machine(config))
    return programs


def run(seed: int, seconds: float, trace: bool, engine: str,
        work: str) -> Outcome:
    out = Outcome()
    config = resolve_target(TARGET)
    inputs = make_inputs(seed)
    layers = Layers() if trace else None
    setup = Meter()
    for _ in range(SETUP_REPEATS):
        with setup.timed():
            programs = _set_up(inputs, config, engine, layers)
    if layers is not None:
        layers.freeze(SETUP_LAYERS, SETUP_REPEATS)

    meter = Meter()
    first_cycles: dict[str, int] = {}
    first_instructions: dict[str, int] = {}

    def simulate() -> list:
        if layers is None:
            return [
                run_program(program, Machine(config)) for program in programs
            ]
        results = []
        for program in programs:
            with layers.clock("machine.build_ms"):
                machine = Machine(config)
            with layers.clock("vm.run_ms"):
                results.append(run_program(program, machine))
        return results

    def one_op(_round: int) -> None:
        out.attempted += 1
        try:
            with meter.timed():
                results = simulate()
        except Exception as exc:
            out.failed += 1
            out.check(False, f"simulation raised {type(exc).__name__}: {exc}")
            return
        meter.latency(meter.last)
        for (name, _source, expected), result in zip(inputs, results):
            if layers is not None:
                layers.add_run(result)
            out.check(
                tuple(result.printed) == expected.printed,
                f"{name}: printed {result.printed}, "
                f"model {list(expected.printed)}",
            )
            moved = result.machine.perf.as_dict().get("accessor.bytes_in", 0)
            out.check(
                moved == expected.accessor_bytes_in,
                f"{name}: accessor.bytes_in {moved}, "
                f"model {expected.accessor_bytes_in}",
            )
            cycles = first_cycles.setdefault(name, result.cycles)
            instructions = first_instructions.setdefault(
                name, result.instructions
            )
            out.check(
                (result.cycles, result.instructions) == (cycles, instructions),
                f"{name}: {result.cycles} simulated cycles and "
                f"{result.instructions} instructions, the first run had "
                f"{cycles} and {instructions}",
            )

    run_rounds(seconds, meter, one_op)
    end_to_end(
        meter, setup, 1, sum(first_instructions.values()), P90_WINDOW, out
    )
    if layers is not None:
        out.layers = layers.per_op(out.attempted)
    return out
