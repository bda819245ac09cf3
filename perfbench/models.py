"""Pure-Python models of the two game workloads the benchmark checks.

Each model re-states, without the compiler or the simulator, what one
generator in ``repro.game.sources`` must print and how many bytes its
``Array`` accessors must move.  The models follow the simulator's
float semantics: arithmetic is done in double precision and a value is
rounded to float32 when it is stored to a ``float`` field or global;
loads return the stored float32.

A model takes the generator's parameters and returns an
:class:`Expected`; the benchmark compares every run against it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: Bytes in the ``Entity`` struct of both generators (six 4-byte fields).
ENTITY_BYTES = 24
#: Bytes in one pointer of the simulated machines.
POINTER_BYTES = 4

_F32 = struct.Struct("<f")


def f32(value: float) -> float:
    """``value`` rounded to the nearest float32, as a store does."""
    return _F32.unpack(_F32.pack(value))[0]


@dataclass(frozen=True)
class Expected:
    """What one program must print, and the accessor bytes it must move
    on a machine with local stores (0 on shared-memory machines)."""

    printed: tuple
    accessor_bytes_in: int


def _collisions(xs, ys, hits, first, second, radius2: float) -> None:
    for a, b in zip(first, second):
        dx = xs[a] - xs[b]
        dy = ys[a] - ys[b]
        if dx * dx + dy * dy < radius2:
            # ``a`` and ``b`` can be the same entity: it is hit twice.
            hits[a] += 1
            hits[b] += 1


def _nearest(xs, ys, count: int) -> tuple[list[float], list[int]]:
    """Per entity, the smallest squared distance to another entity and
    the first entity at that distance (the AI threat scan)."""
    scores, plans = [], []
    for i in range(count):
        best, plan = 1.0e9, 0
        for j in range(count):
            if i != j:
                dx = xs[i] - xs[j]
                dy = ys[i] - ys[j]
                d = dx * dx + dy * dy
                if d < best:
                    best, plan = d, j
        scores.append(f32(best))
        plans.append(plan)
    return scores, plans


def figure2_model(entity_count: int, pair_count: int, frames: int) -> Expected:
    """``figure2_source(entity_count, pair_count, frames)``, offloaded."""
    n = entity_count
    xs = [f32(float(i * 7 % 97)) for i in range(n)]
    ys = [f32(float(i * 13 % 89)) for i in range(n)]
    vxs = [f32(float(i % 5) - 2.0) for i in range(n)]
    vys = [f32(float(i % 3) - 1.0) for i in range(n)]
    hits = [0] * n
    first = [k % n for k in range(pair_count)]
    second = [(k * 11 + 1) % n for k in range(pair_count)]
    scores = [0.0] * n
    rendered = 0.0
    for _ in range(frames):
        # The offloaded strategy pass reads positions staged at launch;
        # the host's collision pass only writes hit counts.
        scores, _plans = _nearest(xs, ys, n)
        _collisions(xs, ys, hits, first, second, 4.0)
        xs = [f32(x + vx) for x, vx in zip(xs, vxs)]
        ys = [f32(y + vy) for y, vy in zip(ys, vys)]
        acc = 0.0
        for score in scores:
            acc = acc + score
        rendered = f32(acc)
    return Expected(
        printed=(scores[0], hits[0], rendered),
        accessor_bytes_in=frames * n * ENTITY_BYTES,
    )


def game_demo_model(
    entity_count: int, pair_count: int, particles: int, frames: int
) -> Expected:
    """``game_demo_source(entity_count, pair_count, particles, frames)``,
    offloaded."""
    n = entity_count
    xs = [f32(float(i * 17 % 101) - 50.0) for i in range(n)]
    ys = [f32(float(i * 29 % 97) - 48.0) for i in range(n)]
    vxs = [f32(float(i % 7) - 3.0) for i in range(n)]
    vys = [f32(float(i % 5) - 2.0) for i in range(n)]
    hits = [0] * n
    first = [k % n for k in range(pair_count)]
    second = [(k * 13 + 1) % n for k in range(pair_count)]
    anim_phase = [0.0] * particles
    anim_weight = [0.0] * particles
    emit_phase = [f32(float(i % 5)) for i in range(particles)]
    emitted = [0] * particles
    plans = [0] * n
    rendered = 0.0
    for _ in range(frames):
        scores, plans = _nearest(xs, ys, n)
        for i in range(particles):
            anim_phase[i] = f32(anim_phase[i] + 0.25)
            anim_weight[i] = f32(anim_weight[i] * 0.5 + anim_phase[i])
        for i in range(particles):
            emit_phase[i] = f32(emit_phase[i] + 1.0)
            if emit_phase[i] > 4.0:
                emit_phase[i] = 0.0
                emitted[i] += 1
        _collisions(xs, ys, hits, first, second, 9.0)
        xs = [f32(x + vx) for x, vx in zip(xs, vxs)]
        ys = [f32(y + vy) for y, vy in zip(ys, vys)]
        acc = 0.0
        for score in scores:
            acc = acc + score
        for weight in anim_weight:
            acc = acc + weight
        rendered = f32(acc)
    # Per frame: the staged entities plus the two component-pointer
    # arrays of the animation and emitter passes.
    per_frame = n * ENTITY_BYTES + 2 * particles * POINTER_BYTES
    return Expected(
        printed=(rendered, plans[0], hits[0], emitted[0],
                 anim_phase[particles - 1]),
        accessor_bytes_in=frames * per_frame,
    )
