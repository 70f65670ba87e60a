"""Spans around the engine's layer boundaries, recorded from outside.

The traced run patches the main-process calls that bound each layer of a
replay (checkpoint, manifest, ledger, cleanup, footer scans, staging, the
readers) with a wrapper that records a span: name, start, end, parent
span, batch id (the table version) and thread. Spans stay in memory and
are written out when the run ends. Nothing inside ``dbimport_ray`` is
changed; ``Tracer.restore`` puts every original back.

``replay_phases`` cuts each replay's wall time into the six phases of
``CDCEngine._replay_locked`` at the recorded boundaries:

    plan      replay start     -> staging starts
    stage     staging starts   -> set_stage(STAGED) returns
    merge                      -> set_stage(MERGED) returns
    validate                   -> set_stage(VALIDATED) returns
    commit                     -> commit_batch returns
    cleanup                    -> replay returns
"""

from __future__ import annotations

import functools
import glob
import json
import os
import statistics
import threading
import time

from dbimport_ray.state.checkpoint import (
    STAGE_MERGED,
    STAGE_STAGED,
    STAGE_VALIDATED,
)

PHASES = ("plan", "stage", "merge", "validate", "commit", "cleanup")


def _count_files(paths) -> int:
    if isinstance(paths, str):
        paths = [paths]
    n = 0
    for p in paths:
        n += len(glob.glob(os.path.join(p, "*.parquet"))) if os.path.isdir(p) else 1
    return n


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.markers: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # --- recording ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper. ``before``
        runs ahead of the call with its arguments; ``after(span, args,
        kwargs, result)`` may annotate the span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if before is not None:
                before(args, kwargs)
            span = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "batch": None,
                "thread": threading.current_thread().name,
                "start": time.perf_counter(),
                "end": None,
            }
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            try:
                out = orig(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = time.perf_counter()
            if after is not None:
                after(span, args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def _stack(self) -> list[int]:
        s = getattr(self._local, "stack", None)
        if s is None:
            s = self._local.stack = []
        return s

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def install(self, num_partitions: int) -> None:
        import dbimport_ray.pipelines.cdc as cdc
        import dbimport_ray.pipelines.diff as diff
        import dbimport_ray.sources.events as events
        import dbimport_ray.sources.lake as lake
        from dbimport_ray.state.checkpoint import CheckpointStore
        from dbimport_ray.state.manifest import TableStore

        def set_version(span, args, kwargs, out):
            if isinstance(out, dict) and out.get("status") == "committed":
                span["batch"] = out["version"]
            span["status"] = out.get("status") if isinstance(out, dict) else None

        def stage_version(span, args, kwargs, out):
            span["batch"] = kwargs.get("version")
            span["staged_rows"] = sum(int(f["rows"]) for f in out if int(f["pid"]) >= 0)
            span["staged_bytes"] = sum(int(f["bytes"]) for f in out if int(f["pid"]) >= 0)
            span["batch_after"] = int(kwargs["after_seq"])
            span["events_read"] = int(kwargs["upto_seq"]) - int(kwargs["after_seq"])

        def stage_code(span, args, kwargs, out):
            span["code"] = args[1] if len(args) > 1 else kwargs.get("stage")

        def footers(span, args, kwargs, out):
            span["files"] = len(out) if isinstance(out, list) else _count_files(args[0])

        def read_markers(args, kwargs):
            store, version = args[0], args[1]
            for pid in range(num_partitions):
                m = store.read_marker(version, pid)
                if m is not None:
                    self.markers.append({"lake": store.root, "batch": version, **{
                        k: m.get(k) for k in ("pid", "duration_s", "events_in", "rows", "bytes")
                    }})

        def lookup_stats(span, args, kwargs, out):
            st = kwargs.get("stats")
            if st is not None:
                span["files_opened"] = st.get("files_opened", 0)

        def diff_stats(span, args, kwargs, out):
            st = kwargs.get("stats")
            if st is not None:
                span["partitions_read"] = st.get("partitions_read", 0)

        self.wrap(cdc.CDCEngine, "replay", "replay", after=set_version)
        self.wrap(cdc.CDCEngine, "_stage", "stage", after=stage_version)
        for a in ("begin_batch", "set_stage", "commit_batch"):
            self.wrap(CheckpointStore, a, f"checkpoint.{a}",
                      after=stage_code if a == "set_stage" else None)
        for a in ("stage_manifest", "commit_manifest", "append_metrics",
                  "clear_staging", "purge_old_versions"):
            self.wrap(TableStore, a, f"store.{a}")
        self.wrap(TableStore, "clear_markers", "store.clear_markers", before=read_markers)
        self.wrap(cdc, "max_sequence", "events.max_sequence", after=footers)
        self.wrap(events, "file_seq_stats", "events.file_seq_stats", after=footers)
        self.wrap(lake, "lookup_rows", "lake.lookup_rows", after=lookup_stats)
        self.wrap(diff, "diff_versions", "diff.diff_versions", after=diff_stats)

    # --- analysis -----------------------------------------------------------
    def finish(self) -> None:
        """Give every span the batch id of its nearest annotated ancestor."""
        for s in self.spans:
            if s["batch"] is None and s["parent"] is not None:
                s["batch"] = self.spans[s["parent"]]["batch"]

    def _descendants(self, root: int) -> list[dict]:
        out, frontier = [], {root}
        for i, s in enumerate(self.spans):
            if i > root and s["parent"] in frontier:
                frontier.add(i)
                out.append(s)
        return out

    def replay_phases(self) -> list[dict]:
        """Per committed replay: wall time, the six phases, and the sum
        check. A missing boundary leaves its phase at 0, so the sum falls
        short of the wall time and the check shows it."""
        rows = []
        for i, r in enumerate(self.spans):
            if r["name"] != "replay" or r.get("status") != "committed":
                continue
            kids = self._descendants(i)
            t = {"start": r["start"], "end": r["end"]}
            stages = [k for k in kids if k["name"] == "stage"]
            if stages:
                t["stage"] = stages[0]["start"]
            for k in kids:
                if k["name"] == "checkpoint.set_stage":
                    t[{STAGE_STAGED: "staged", STAGE_MERGED: "merged",
                       STAGE_VALIDATED: "validated"}.get(k["code"], "other")] = k["end"]
                elif k["name"] == "checkpoint.commit_batch":
                    t["committed"] = k["end"]
            cuts = [t["start"], t.get("stage"), t.get("staged"), t.get("merged"),
                    t.get("validated"), t.get("committed"), t["end"]]
            phases = {}
            for name, a, b in zip(PHASES, cuts, cuts[1:]):
                phases[name] = (b - a) if a is not None and b is not None else 0.0
            wall = r["end"] - r["start"]
            rows.append({"batch": r["batch"], "wall": wall, **phases,
                         "phase_sum_frac": sum(phases.values()) / wall})
        return rows

    def self_times(self) -> dict[str, dict]:
        """Total and self time per span name; self time is a span's
        duration minus its children's (children of one thread run in
        sequence, so their durations do not overlap)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            d = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            d["count"] += 1
            d["total_s"] += s["end"] - s["start"]
            d["self_s"] += s["end"] - s["start"] - child[i]
        return out

    def per_batch(self, name: str, batches: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name) / batches

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "markers": self.markers,
                       "self_times": self.self_times(), **extra}, f)


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one recorded span around a no-op call, for the
    tracing-overhead estimate."""
    class _Probe:
        def noop(self):
            return None

    tr = Tracer()
    p = _Probe()
    t0 = time.perf_counter()
    for _ in range(calls):
        p.noop()
    base = time.perf_counter() - t0
    tr.wrap(_Probe, "noop", "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        p.noop()
    traced = time.perf_counter() - t0
    tr.restore()
    return max(0.0, traced - base) / calls


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def range_input_bytes(files: list[dict], after: int, upto: int) -> float:
    """Input bytes of the events in ``(after, upto]``, pro rata per file
    (sequence ids are dense)."""
    total = 0.0
    for f in files:
        lo, hi = max(after + 1, f["min_seq"]), min(upto, f["max_seq"])
        if hi >= lo:
            total += f["bytes"] * (hi - lo + 1) / f["rows"]
    return total


def layer_metrics(tracer: Tracer, s, meta: dict, engine, nproc: int,
                  cpu_busy: float, scratch: str) -> dict:
    """Per-layer metrics of the traced run as ``{name: (value, unit)}``.
    Phase and store timings are means per committed batch of the timed
    loop; the kernel floor is measured on that loop's last batch."""
    from floor import kernel_floor

    phases = tracer.replay_phases()
    nb = len(phases)
    per = lambda name: tracer.per_batch(name, nb)  # noqa: E731
    out: dict[str, tuple[float, str]] = {}
    for p in PHASES:
        out[f"cdc.{p}_s"] = (sum(r[p] for r in phases) / nb, "s")

    # the last batch: its stage work (in the replay, plus any prestage
    # run on replay_stream's side thread) and merge phase against the floor
    last = phases[-1]
    with open(os.path.join(engine.store.root, "_metrics.jsonl")) as f:
        ledger = [json.loads(x) for x in f if x.strip()]
    batch = ledger[-1]
    floor = kernel_floor(engine, meta["files"], batch, scratch, nproc)
    side = [sp for sp in tracer.spans if sp["name"] == "stage" and sp["parent"] is None
            and sp["thread"] != "MainThread" and sp["batch"] == last["batch"]]
    prestage = max(side, key=lambda sp: sp["start"]) if side else None
    prestage = prestage["end"] - prestage["start"] if prestage else 0.0
    out["cdc.stage_overhead_s"] = (last["stage"] + prestage - floor["stage_floor_s"], "s")
    out["cdc.merge_overhead_s"] = (last["merge"] - floor["merge_floor_s"], "s")
    out["host.cpu_busy_frac"] = (cpu_busy, "ratio")
    k = floor["kernels"]
    for name in ("read", "normalize", "key_hash", "stage_write", "staged_read",
                 "merge", "write", "zones"):
        out[f"kernel.{name}_s"] = (k[name], "s")
    out["kernel.lww_s"] = (k["lww"] + k["lww_merge"], "s")

    by_batch: dict = {}
    for m in tracer.markers:
        by_batch.setdefault((m["lake"], m["batch"]), []).append(float(m["duration_s"]))
    p50s = [median(d) for d in by_batch.values()]
    maxs = [max(d) for d in by_batch.values()]
    out["merge.partition_s.p50"] = (median(p50s), "s")
    out["merge.partition_s.max"] = (median(maxs), "s")
    out["merge.straggler"] = (median([mx / max(p, 1e-9) for mx, p in zip(maxs, p50s)]), "ratio")
    out["merge.partitions_touched"] = (
        sum(len(d) for d in by_batch.values()) / max(1, len(by_batch)), "count")

    # staging that read events has child spans (the footer scan of
    # read_events); a replay that finds its batch prestaged has none
    parents = {sp["parent"] for sp in tracer.spans}
    stages = [sp for i, sp in enumerate(tracer.spans)
              if sp["name"] == "stage" and i in parents]
    read = sum(sp["events_read"] for sp in stages)
    out["lww.survivor_ratio"] = (sum(sp["staged_rows"] for sp in stages) / max(1, read), "ratio")
    in_bytes = 0.0
    for sp in stages:
        after = sp["batch_after"]
        in_bytes += range_input_bytes(meta["files"], after, after + sp["events_read"])
    out["stage.bytes_per_event_byte"] = (
        sum(sp["staged_bytes"] for sp in stages) / max(1.0, in_bytes), "B/B")

    scans = [sp for sp in tracer.spans
             if sp["name"] in ("events.max_sequence", "events.file_seq_stats")]
    out["events.footer_reads"] = (sum(sp.get("files", 0) for sp in scans) / nb, "count")
    out["events.inventory_s"] = (sum(sp["end"] - sp["start"] for sp in scans) / nb, "s")
    out["tail.backlog_max"] = (s.backlog_max, "count")

    out["manifest.commit_s"] = (per("store.stage_manifest") + per("store.commit_manifest"), "s")
    ck = ("checkpoint.begin_batch", "checkpoint.set_stage", "checkpoint.commit_batch")
    out["checkpoint.writes"] = (sum(tracer.count(n) for n in ck) / nb, "count")
    out["checkpoint.s"] = (sum(per(n) for n in ck), "s")
    out["ledger.append_s"] = (per("store.append_metrics"), "s")
    out["purge.s"] = (per("store.purge_old_versions"), "s")
    out["lookup.files_opened_per_key"] = (s.lookup_files / max(1, s.lookup_keys), "count")
    out["diff.partitions_read"] = (
        sum(s.diff_partitions) / max(1, len(s.diff_partitions)), "count")

    wall = sum(r["wall"] for r in phases)
    out["trace.phase_sum_frac"] = (min(r["phase_sum_frac"] for r in phases), "ratio")
    out["trace.overhead_frac"] = (span_cost_s() * len(tracer.spans) / wall, "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
