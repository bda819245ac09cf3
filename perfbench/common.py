"""Shared pieces of the benchmark: metric catalogue, clocks, layer
accumulators and the result record every workload returns."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from models import figure2_model, game_demo_model

#: The checkout root: the benchmark reads and writes nothing outside it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 11

#: The host speed end-to-end times are scaled to, as a time of
#: :func:`calibration_job`: a round figure near its 8.6-10 ms on the
#: 2-CPU host of the README's reference figures when that host was
#: least contended.  Changing it rescales every end-to-end time.
CALIBRATION_REFERENCE_S = 0.010

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "sim_instr_per_s": "instr/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, named by module: name -> unit.  Times and counts
#: are per operation (a farm job on ``farm-sweep``) unless the README
#: says otherwise; ratios are over the whole run.
PER_LAYER = {
    "lang.parse_ms": "ms",
    "lang.sema_ms": "ms",
    "compiler.passes_ms": "ms",
    "compiler.cache_store_ms": "ms",
    "compiler.cache_stores": "count",
    "compiler.cache_load_ms": "ms",
    "compiler.cache_hits": "count",
    "compiler.cache_misses": "count",
    "ir.functions": "count",
    "ir.instructions": "count",
    "ir.artifact_bytes": "bytes",
    "analysis.run_ms": "ms",
    "analysis.findings": "count",
    "vm.translate_ms": "ms",
    "vm.functions_translated": "count",
    "vm.run_ms": "ms",
    "vm.instructions": "count",
    "machine.build_ms": "ms",
    "machine.sim_cycles": "cycles",
    "runtime.dma_bytes": "bytes",
    "runtime.dma_waits": "count",
    "runtime.softcache_hit_ratio": "ratio",
    "runtime.dispatch_probes": "count",
    "sched.uploads": "count",
    "sched.stall_cycles": "cycles",
    "sched.accel_utilization": "ratio",
    "obs.report_ms": "ms",
    "farm.pool_start_ms": "ms",
    "farm.job_ms": "ms",
    "farm.overhead_ms_per_job": "ms",
    "farm.worker_utilization": "ratio",
    "farm.retries": "count",
    "farm.compiles": "count",
    "farm.translations": "count",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        """Record a wrong output; any problem makes the run incorrect."""
        if not condition and len(self.problems) < 20:
            self.problems.append(message)


class Meter:
    """Clocks for the timed part of a run.

    A run repeats one round of work.  ``timed(key)`` wraps one measured
    block of a round (an operation, or a whole farm batch) and records
    its wall time and the CPU time of this process plus the child
    processes reaped during it.  Everything outside ``timed()`` blocks
    (output checks, oracle runs, bookkeeping) is not measured.

    The host this benchmark runs on is shared: its speed changes by up
    to 2x from one minute to the next.  So after each block, unmeasured,
    the meter times :func:`calibration_job`, a fixed pure-Python job that
    slows with the host, and scales the block's times to the reference
    host speed (``CALIBRATION_REFERENCE_S``), using the median of the
    five calibrations nearest the block.  Rates then come from a
    *typical round*: each block's median scaled time over the run's
    rounds, summed over the blocks of a round.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        #: Wall time of the last block.
        self.last = 0.0
        #: (key, wall, cpu, calibration) seconds per block, in order.
        self._blocks: list[tuple[object, float, float, float]] = []
        #: (block index, seconds) of every operation, for latency
        #: percentiles; on ``farm-sweep`` a block holds many operations.
        self._latencies: list[tuple[int, float]] = []

    @contextmanager
    def timed(self, key: object = None):
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu0
            self.wall += elapsed
            self.last = elapsed
            self._blocks.append((key, elapsed, cpu, calibration_job()))

    def latency(self, seconds: float) -> None:
        """Record one operation's latency in the last block."""
        self._latencies.append((len(self._blocks) - 1, seconds))

    def _scales(self) -> list[float]:
        cal = [block[3] for block in self._blocks]
        return [
            CALIBRATION_REFERENCE_S
            / statistics.median(cal[max(0, i - 2):i + 3])
            for i in range(len(cal))
        ]

    def summary(self, scaled: bool) -> tuple[float, float, list]:
        """(wall, cpu) seconds of a typical round, and every latency as
        (block index, seconds)."""
        scales = self._scales() if scaled else [1.0] * len(self._blocks)
        walls: dict[object, list[float]] = {}
        cpus: dict[object, list[float]] = {}
        for (key, wall, cpu, _cal), scale in zip(self._blocks, scales):
            walls.setdefault(key, []).append(wall * scale)
            cpus.setdefault(key, []).append(cpu * scale)
        wall = sum(statistics.median(v) for v in walls.values())
        cpu = sum(statistics.median(v) for v in cpus.values())
        latencies = [(i, seconds * scales[i]) for i, seconds in self._latencies]
        return wall, cpu, latencies

    @property
    def blocks(self) -> int:
        return len(self._blocks)

    def median_calibration(self) -> float:
        return statistics.median(block[3] for block in self._blocks)


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def calibration_job() -> float:
    """Seconds this host takes for a fixed pure-Python job: the
    benchmark's own models, which no change to the program can touch."""
    start = time.perf_counter()
    for _ in range(3):
        figure2_model(96, 64, 2)
        game_demo_model(64, 32, 16, 2)
    return time.perf_counter() - start


def end_to_end(
    meter: Meter, setup: Meter, round_ops: int, round_instructions: int,
    window: int, out: Outcome,
) -> None:
    """Set the end-to-end metrics of one run on ``out``.

    ``meter`` timed the operations and ``setup`` each set-up (as blocks
    with the same key, so its typical round is the median set-up).
    ``round_ops`` and ``round_instructions`` are the operations and
    simulated instructions of one round (the same in every round).
    ``op_ms_p90`` is the median, over the run's whole windows of
    ``window`` consecutive blocks, of each window's 90th percentile: a
    burst of contention moves only the windows it falls in, as it moves
    only the rounds it falls in for the rates.
    Times are scaled to the reference host speed (see :class:`Meter`).
    The unscaled figures and the median calibration time go to
    ``out.info``.
    """

    def metrics(scaled: bool) -> dict:
        wall, cpu, latencies = meter.summary(scaled)
        whole = max(1, meter.blocks // window)
        windows: list[list[float]] = [[] for _ in range(whole)]
        for block, seconds in latencies:
            if block // window < whole:
                windows[block // window].append(seconds * 1000.0)
        return {
            "setup_s": setup.summary(scaled)[0],
            "ops_per_s": round_ops / wall,
            "op_ms_p50": statistics.median(
                seconds * 1000.0 for _block, seconds in latencies
            ),
            "op_ms_p90": statistics.median(
                _p90(ms) for ms in windows if ms
            ),
            "sim_instr_per_s": round_instructions / wall,
            "cpu_ms_per_op": cpu * 1000.0 / round_ops,
            "peak_rss_mb": peak_rss_mb(),
        }

    out.end_to_end = metrics(scaled=True)
    out.info["unscaled"] = metrics(scaled=False)
    out.info["calibration_ms"] = meter.median_calibration() * 1000.0


class Layers:
    """Per-layer accumulators for a traced run.

    ``add`` sums a time (seconds) or a count; ``ratio`` sums a
    numerator and a denominator.  ``per_op`` turns sums into the
    per-operation figures the benchmark prints.
    """

    def __init__(self) -> None:
        self.sums: dict[str, float] = {name: 0.0 for name in PER_LAYER}
        self.ratios: dict[str, list[float]] = {}
        #: Metrics reported per set-up or per farm batch rather than
        #: per operation (see ``freeze``).
        self.fixed: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value

    def add_ms(self, name: str, seconds: float) -> None:
        self.sums[name] += seconds * 1000.0

    def ratio(self, name: str, numerator: float, denominator: float) -> None:
        acc = self.ratios.setdefault(name, [0.0, 0.0])
        acc[0] += numerator
        acc[1] += denominator

    @contextmanager
    def clock(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_ms(name, time.perf_counter() - start)

    def add_run(self, result) -> None:
        """Simulated-machine and runtime counters of one finished run."""
        perf = result.machine.perf.as_dict()
        self.add("vm.instructions", result.instructions)
        self.add("machine.sim_cycles", result.cycles)
        self.add(
            "runtime.dma_bytes",
            perf.get("dma.bytes_get", 0) + perf.get("dma.bytes_put", 0),
        )
        self.add("runtime.dma_waits", perf.get("dma.waits", 0))
        self.add(
            "runtime.dispatch_probes",
            perf.get("dispatch.inner_probes", 0)
            + perf.get("dispatch.outer_probes", 0),
        )
        self.ratio(
            "runtime.softcache_hit_ratio",
            perf.get("softcache.hits", 0), perf.get("softcache.probes", 0),
        )
        sched = result.sched
        self.add("sched.uploads", sched.uploads)
        self.add("sched.stall_cycles", sched.stall_cycles)
        self.ratio(
            "sched.accel_utilization", sched.busy_cycles,
            result.machine.config.num_accelerators * result.cycles,
        )

    def add_program(self, program) -> None:
        self.add("ir.functions", len(program.functions))
        self.add(
            "ir.instructions",
            sum(len(f.code) for f in program.functions.values()),
        )

    def add_pass_timings(self, timings) -> None:
        """Fold ``PassManager.run`` timings into the front-end, pass
        and analysis layers."""
        for timing in timings:
            if timing.name == "parse":
                name = "lang.parse_ms"
            elif timing.name == "sema":
                name = "lang.sema_ms"
            elif timing.name == "analyze":
                name = "analysis.run_ms"
            else:
                name = "compiler.passes_ms"
            self.add_ms(name, timing.seconds)

    def per_op(self, ops: int) -> dict:
        out = {}
        for name in PER_LAYER:
            if name in self.fixed:
                out[name] = self.fixed[name]
            elif name in self.ratios:
                num, den = self.ratios[name]
                out[name] = num / den if den else 0.0
            else:
                out[name] = self.sums[name] / ops
        return out

    def freeze(self, names: list[str], count: int) -> None:
        """Report ``names`` per set-up or per batch (their sums over
        ``count``) instead of per operation, and stop accumulating
        them."""
        for name in names:
            self.fixed[name] = self.sums[name] / count
            self.sums[name] = 0.0

    def reset(self, names: list[str]) -> None:
        for name in names:
            self.sums[name] = 0.0


def traced_compile(source: str, config, options, cache, layers: Layers):
    """``compile_program(source, config, options, cache=cache)`` split
    into its cache lookup, pass pipeline and cache store, each timed."""
    from repro.compiler.cache import compile_cache_key
    from repro.compiler.passes import PassManager

    with layers.clock("compiler.cache_load_ms"):
        key = compile_cache_key(source, config, options)
        program = cache.load(key)
    if program is None:
        layers.add("compiler.cache_misses", 1)
        ctx = PassManager.default().run(source, config, options)
        layers.add_pass_timings(ctx.timings)
        program = ctx.program
        with layers.clock("compiler.cache_store_ms"):
            cache.store(key, program)
        layers.add("compiler.cache_stores", 1)
    else:
        layers.add("compiler.cache_hits", 1)
    layers.add_program(program)
    layers.add("ir.artifact_bytes", os.path.getsize(cache.path_for(key)))
    return program


@contextmanager
def work_dir(name: str):
    """A scratch directory inside the checkout, removed on exit."""
    base = os.path.join(ROOT, ".perfbench-work")
    path = os.path.join(base, f"{name}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it


def run_rounds(seconds: float, meter: Meter, one_round) -> int:
    """Call ``one_round`` until the timed part reaches ``seconds``.

    Only whole rounds run, so every run attempts the same operations in
    the same proportions.  Returns the number of rounds.
    """
    rounds = 0
    while rounds == 0 or meter.wall < seconds:
        one_round(rounds)
        rounds += 1
    return rounds
