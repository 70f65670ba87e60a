"""The workload loops. Each drives the engine only through its public API
(``CDCEngine.replay_stream``, ``replay``, ``lookup``, ``diff``) and fills a
``Samples`` record; run.py turns the samples into metrics.

``bulk_*`` is a closed loop: one pass replays the whole input on a fresh
lake in ``batches`` micro-batches with ``replay_stream``, then runs the
read mix. A run starts passes until ``--seconds`` have gone by, and makes
at least ``MIN_BULK_PASSES``.

``tail_mixed`` is an open loop from a single thread on a committed base.
Chunk k falls due at ``start + (k+1) * chunk_interval_s``. Each iteration
replays everything due, over only the files due so far (the engine probes
their footers for the new watermark, as ``CDCEngine.tail`` does), then
runs the read mix. A chunk's lag runs from its due time to the return of
the replay that committed it, so time spent in reads delays later chunks.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field

from dbimport_ray import CDCEngine, repo_files_config
from steal import StealClock

from spec import (
    BULK_DIFFS,
    BULK_LOOKUPS,
    MIN_BULK_PASSES,
    NUM_PARTITIONS,
    TAIL_LOOKUPS,
    WORKLOADS,
)


@dataclass
class Samples:
    """Every duration is steal-corrected with ``clock`` (steal.py)."""

    clock: StealClock
    iter_setup_s: list = field(default_factory=list)
    replay_s: list = field(default_factory=list)
    replay_end: list = field(default_factory=list)
    lag_s: list = field(default_factory=list)
    lookup_s: list = field(default_factory=list)
    # bulk: events/s of each pass, and where each pass's samples start in
    # lag_s and lookup_s; run.py reports medians over passes, so that one
    # slow pass does not move a run's figure
    pass_rate: list = field(default_factory=list)
    pass_lag_start: list = field(default_factory=list)
    pass_lookup_start: list = field(default_factory=list)
    diff_s: list = field(default_factory=list)
    lookup_files: int = 0
    lookup_keys: int = 0
    diff_partitions: list = field(default_factory=list)
    events: int = 0
    replay_wall_s: float = 0.0
    input_bytes: int = 0
    backlog_max: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    # (engine, final committed seq, input files, first timed version)
    lakes: list = field(default_factory=list)
    timed_wall_s: float = 0.0
    peak_rss_mb: float = 0.0


def new_engine(root: str) -> CDCEngine:
    shutil.rmtree(root, ignore_errors=True)
    return CDCEngine(root, repo_files_config(num_partitions=NUM_PARTITIONS))


def time_replays(eng: CDCEngine, s: Samples) -> None:
    """Time every ``replay`` call on this engine, including the ones
    ``replay_stream`` makes (it calls ``self.replay``)."""
    inner = eng.replay

    def replay(*args, **kwargs):
        t0 = time.perf_counter()
        out = inner(*args, **kwargs)
        t1 = time.perf_counter()
        s.replay_s.append(s.clock.corrected(t0, t1))
        s.replay_end.append(t1)
        return out

    eng.replay = replay


def _fail(s: Samples, what: str) -> None:
    s.failed += 1
    if len(s.errors) < 10:
        s.errors.append(what)


def read_mix(eng: CDCEngine, keys: list[dict], lookups: int, diffs: int,
             rng: random.Random, s: Samples) -> None:
    """Point lookups of keys known to have a row, then ``diff(v-1, v)``,
    the downstream "what changed in the last batch" read. A lookup is too
    short to have its own steal share, so the lookups of one call share
    the share of their whole block."""
    raw: list[float] = []
    t_block = time.perf_counter()
    for _ in range(lookups):
        key = keys[rng.randrange(len(keys))]
        st: dict = {}
        s.attempted += 1
        t0 = time.perf_counter()
        try:
            rows = eng.lookup([key], stats=st).num_rows
        except Exception as e:  # a raised read counts as failed
            _fail(s, f"lookup: {e!r}")
            continue
        dt = time.perf_counter() - t0
        if rows != 1:
            _fail(s, f"lookup {key} returned {rows} rows")
            continue
        raw.append(dt)
        s.lookup_files += st.get("files_opened", 0)
        s.lookup_keys += 1
    keep = 1.0 - s.clock.steal_share(t_block, time.perf_counter())
    s.lookup_s += [dt * keep for dt in raw]
    v = eng.store.load_manifest().version
    for _ in range(diffs):
        st = {}
        s.attempted += 1
        t0 = time.perf_counter()
        try:
            n = eng.diff(v - 1, v, stats=st).num_rows
        except Exception as e:
            _fail(s, f"diff: {e!r}")
            continue
        dt = s.clock.corrected(t0, time.perf_counter())
        if n == 0:
            _fail(s, f"diff({v - 1}, {v}) is empty")
            continue
        s.diff_s.append(dt)
        s.diff_partitions.append(st.get("partitions_read", 0))


def run_bulk(meta: dict, seconds: float, work: str, rng: random.Random,
             s: Samples, on_timed) -> None:
    w = WORKLOADS[meta["workload"]]
    bounds = meta["boundaries"]
    files = [f["path"] for f in meta["files"]]
    on_timed()
    t_begin = time.perf_counter()
    it = 0
    while it < MIN_BULK_PASSES or time.perf_counter() - t_begin < seconds:
        t_it = time.perf_counter()
        eng = new_engine(os.path.join(work, f"lake{it}"))
        s.iter_setup_s.append(s.clock.corrected(t_it, time.perf_counter()))
        time_replays(eng, s)
        n0 = len(s.replay_end)
        s.attempted += len(bounds)
        s.backlog_max = max(s.backlog_max, len(bounds))  # all due at start
        t0 = time.perf_counter()
        try:
            res = eng.replay_stream(meta["events_path"], bounds)
        except Exception as e:
            res = []
            s.errors.append(f"replay_stream: {e!r}")
        wall = s.clock.corrected(t0, time.perf_counter())
        s.replay_wall_s += wall
        s.pass_rate.append(w["events"] / wall)
        done = sum(r.get("status") == "committed" for r in res)
        for _ in range(len(bounds) - done):
            _fail(s, "a batch of replay_stream did not commit")
        s.pass_lag_start.append(len(s.lag_s))
        s.lag_s += [s.clock.corrected(t0, t) for t in s.replay_end[n0:]]
        s.events += w["events"]
        s.input_bytes += sum(f["bytes"] for f in meta["files"])
        s.pass_lookup_start.append(len(s.lookup_s))
        read_mix(eng, meta["lookup_keys"], BULK_LOOKUPS, BULK_DIFFS, rng, s)
        s.lakes.append((eng, bounds[-1], files, 1))
        it += 1
    s.timed_wall_s = time.perf_counter() - t_begin


def run_tail(meta: dict, seconds: float, work: str, rng: random.Random,
             s: Samples, on_timed) -> None:
    w = WORKLOADS["tail_mixed"]
    base = meta["base"]["path"]
    chunks = meta["chunks"]
    t_it = time.perf_counter()
    eng = new_engine(os.path.join(work, "lake0"))
    r = eng.replay([base])
    if r.get("status") != "committed":
        raise RuntimeError(f"base load did not commit: {r}")
    s.iter_setup_s.append(s.clock.corrected(t_it, time.perf_counter()))
    on_timed()
    time_replays(eng, s)

    n = len(chunks)
    t_begin = time.perf_counter()
    due_at = [t_begin + (k + 1) * w["chunk_interval_s"] for k in range(n)]
    committed = due = 0
    while committed < n:
        now = time.perf_counter()
        while due < n and due_at[due] <= now:
            due += 1
        if due == committed:
            time.sleep(due_at[committed] - now)
            continue
        s.backlog_max = max(s.backlog_max, due - committed)
        s.attempted += 1
        t0 = time.perf_counter()
        try:
            r = eng.replay([base] + [c["path"] for c in chunks[:due]])
            if r.get("status") != "committed":
                _fail(s, f"replay returned {r.get('status')}")
        except Exception as e:
            _fail(s, f"replay: {e!r}")
        t_ret = time.perf_counter()
        s.replay_wall_s += s.clock.corrected(t0, t_ret)
        s.lag_s += [s.clock.corrected(due_at[k], t_ret) for k in range(committed, due)]
        s.events += sum(c["rows"] for c in chunks[committed:due])
        s.input_bytes += sum(c["bytes"] for c in chunks[committed:due])
        committed = due
        read_mix(eng, meta["lookup_keys"], TAIL_LOOKUPS, 1, rng, s)
    s.timed_wall_s = time.perf_counter() - t_begin
    s.lakes.append((eng, chunks[-1]["max_seq"], [f["path"] for f in meta["files"]], 2))


def run_workload(meta, seconds, work, rng, s, on_timed) -> None:
    kind = WORKLOADS[meta["workload"]]["kind"]
    (run_bulk if kind == "bulk" else run_tail)(meta, seconds, work, rng, s, on_timed)
