"""Seeded traffic for the serving benchmark.

Every input of a run is derived from ``--seed`` before timing starts:

* a *series pool* of situation-augmented GTSRB-like sign series (about
  30 frames each), embedded once by the study's feature model;
* a *schedule* that says, for every tick, which streams send a frame
  and which pool row (model input + stateless quality factors) that
  frame carries, with ``new_series`` raised at every series onset.

The schedule is stored as integer index arrays.  :meth:`Traffic.frames`
turns one tick of it into the list of :class:`StreamFrame` objects a
client hands to ``ServingController.tick``; the harness calls it outside
the timed region.  Building every tick's frame objects up front would
keep millions of objects alive and turn each gen-2 collection into a
walk over the whole run's input, which no deployed client does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Series in the shared pool; streams draw their series from it.
POOL_SERIES = 2048


@dataclass
class SeriesPool:
    """Embedded series, concatenated row-wise: series ``k`` owns rows
    ``offsets[k] : offsets[k] + lengths[k]`` of ``X`` and ``Q``."""

    X: np.ndarray
    Q: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    @property
    def n_series(self) -> int:
        return len(self.lengths)


def build_pool(feature_model, rng: np.random.Generator, n_series: int = POOL_SERIES) -> SeriesPool:
    """Generate and embed ``n_series`` situation-augmented series."""
    from repro.datasets.gtsrb import GTSRBLikeGenerator

    generator = GTSRBLikeGenerator()
    base = generator.generate_base(n_series, rng)
    dataset = generator.augment_with_situations(base, 1, rng)
    X = [feature_model.embed_series(series, rng) for series in dataset.series]
    Q = [np.asarray(series.sensed, dtype=float) for series in dataset.series]
    lengths = np.array([len(x) for x in X], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    return SeriesPool(np.vstack(X), np.vstack(Q), offsets, lengths)


@dataclass
class Tick:
    """One tick of the schedule: parallel arrays, one entry per frame."""

    stream_ids: np.ndarray
    rows: np.ndarray
    new_series: np.ndarray
    priority: np.ndarray


class Traffic:
    """A seeded schedule over a series pool."""

    def __init__(self, pool: SeriesPool, ticks: list[Tick]) -> None:
        self.pool = pool
        self.ticks = ticks

    @property
    def horizon(self) -> int:
        return len(self.ticks)

    def frames(self, t: int) -> list:
        """The client-side frame objects of tick ``t``."""
        from repro.serving.engine import StreamFrame

        tick = self.ticks[t]
        X = self.pool.X[tick.rows]
        Q = self.pool.Q[tick.rows]
        return [
            StreamFrame(sid, x, q, ns, None, p)
            for sid, x, q, ns, p in zip(
                tick.stream_ids.tolist(),
                X,
                Q,
                tick.new_series.tolist(),
                tick.priority.tolist(),
            )
        ]

    def stream_inputs(self, stream_id) -> list[tuple[np.ndarray, np.ndarray, bool]]:
        """Every frame of one stream, in tick order: ``(x, q, new_series)``."""
        out = []
        for tick in self.ticks:
            hit = np.flatnonzero(tick.stream_ids == stream_id)
            if hit.size:
                i = int(hit[0])
                row = int(tick.rows[i])
                out.append((self.pool.X[row], self.pool.Q[row], bool(tick.new_series[i])))
        return out


def closed_loop(pool: SeriesPool, n_streams: int, horizon: int, rng: np.random.Generator) -> Traffic:
    """``n_streams`` streams, one frame each per tick, for ``horizon`` ticks.

    Each stream starts at a random position of a random series, so series
    onsets are spread over the ticks instead of all landing on tick 0;
    when a series ends the stream continues with a fresh random series
    and raises ``new_series``.
    """
    ids = np.arange(n_streams, dtype=np.int64)
    priority = np.zeros(n_streams, dtype=np.int64)
    current = rng.integers(pool.n_series, size=n_streams)
    position = rng.integers(0, pool.lengths[current])
    ticks = []
    for _ in range(horizon):
        rows = (pool.offsets[current] + position).astype(np.int32)
        ticks.append(Tick(ids, rows, position == 0, priority))
        position = position + 1
        done = position >= pool.lengths[current]
        current[done] = rng.integers(pool.n_series, size=int(done.sum()))
        position[done] = 0
    return Traffic(pool, ticks)


def wave(
    pool: SeriesPool,
    n_streams: int,
    horizon: int,
    rng: np.random.Generator,
    mean_share: float = 0.8,
    amplitude: float = 0.2,
    period_ticks: int = 50,
    priority_classes: int = 3,
) -> Traffic:
    """A fixed set of streams whose offered load rises and falls.

    At tick ``t`` a share ``mean_share + amplitude * sin(2 pi t /
    period_ticks)`` of the streams sends one frame.  The senders are the
    next streams of a seeded circular order, picked up where the previous
    tick stopped, so every stream sends about once per lap of the circle
    and is never idle for more than a tick or two.  Each stream keeps one
    of ``priority_classes`` classes and replays series back to back as
    :func:`closed_loop` does.
    """
    order = rng.permutation(n_streams)
    priority = rng.integers(priority_classes, size=n_streams)
    current = rng.integers(pool.n_series, size=n_streams)
    position = rng.integers(0, pool.lengths[current])
    cursor = 0
    ticks = []
    for t in range(horizon):
        share = mean_share + amplitude * math.sin(2.0 * math.pi * t / period_ticks)
        count = min(n_streams, int(round(share * n_streams)))
        ids = np.sort(order[(cursor + np.arange(count)) % n_streams])
        cursor = (cursor + count) % n_streams
        rows = pool.offsets[current[ids]] + position[ids]
        ticks.append(Tick(ids, rows, position[ids] == 0, priority[ids]))
        position[ids] += 1
        done = ids[position[ids] >= pool.lengths[current[ids]]]
        current[done] = rng.integers(pool.n_series, size=len(done))
        position[done] = 0
    return Traffic(pool, ticks)


def churn(
    pool: SeriesPool,
    horizon: int,
    rng: np.random.Generator,
    mean_live: int = 2000,
    amplitude: int = 600,
    period_ticks: int = 50,
    priority_classes: int = 3,
) -> Traffic:
    """Physical objects that appear, run one series, and leave.

    The number of live objects follows ``mean_live + amplitude *
    sin(2 pi t / period_ticks)``.  Every object gets a fresh stream id,
    replays one pool series from its first frame (``new_series`` set) and
    sends nothing once the series ends, so the engine drops it through
    ``idle_ttl``.  Each object draws one of ``priority_classes`` classes.
    """
    next_id = 0
    ids = np.empty(0, dtype=np.int64)
    series = np.empty(0, dtype=np.int64)
    position = np.empty(0, dtype=np.int64)
    priority = np.empty(0, dtype=np.int64)
    ticks = []
    for t in range(horizon):
        alive = position < pool.lengths[series]
        ids, series, position, priority = (
            ids[alive], series[alive], position[alive], priority[alive]
        )
        target = int(round(mean_live + amplitude * math.sin(2.0 * math.pi * t / period_ticks)))
        born = max(0, target - len(ids))
        ids = np.concatenate([ids, np.arange(next_id, next_id + born, dtype=np.int64)])
        next_id += born
        series = np.concatenate([series, rng.integers(pool.n_series, size=born)])
        position = np.concatenate([position, np.zeros(born, dtype=np.int64)])
        priority = np.concatenate(
            [priority, rng.integers(priority_classes, size=born)]
        )
        ticks.append(
            Tick(ids, pool.offsets[series] + position, position == 0, priority)
        )
        position = position + 1
    return Traffic(pool, ticks)
