"""Kernel floor: the ``stages/`` kernels of one batch, in process, no Ray.

Re-runs the per-batch work of a committed replay on the same input: read
the batch's event range, normalize (schema align and ``key_hash``
partition stamp), LWW pre-reduce, staged write, then per partition the
staged read plus the old partition image, cross-block LWW, the merge
kernel, the zstd writes and the zone maps. Nothing is committed; the files
go to a scratch directory that is removed afterwards.

The sums are the floor under the ``stage`` and ``merge`` phases: what the
phases would cost with zero orchestration on ``parallelism`` workers.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import replace

import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from dbimport_ray.pipelines.cdc import deterministic_merge_ts
from dbimport_ray.stages.lww import lww_dedup
from dbimport_ray.stages.merge import merge_partition, target_schema
from dbimport_ray.stages.normalize import NormalizeBatch
from dbimport_ray.stages.partitioning import key_hash
from dbimport_ray.stages.staging import make_stage_writer, read_staged_pid
from dbimport_ray.state.schema_evolution import align_to_schema
from dbimport_ray.state.zones import column_zones

KERNELS = ("read", "normalize", "key_hash", "lww", "stage_write",
           "staged_read", "merge", "write", "zones")


def kernel_floor(engine, files: list[dict], batch: dict, scratch: str,
                 parallelism: int) -> dict:
    """``batch`` is a ledger row (``version``, ``after_seq``, ``upto_seq``);
    ``files`` the input files with their sequence ranges."""
    cfg = engine.cfg
    store = engine.store
    m_new = store.load_manifest(version=batch["version"])
    m_old = (store.load_manifest(version=batch["version"] - 1)
             if batch["version"] > 1 else None)
    unified = m_new.arrow_schema()
    eff = replace(cfg, value_columns=[n for n in unified.names if n not in cfg.pk])
    after, upto = batch["after_seq"], batch["upto_seq"]
    t = dict.fromkeys(KERNELS + ("lww_merge",), 0.0)

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        t[name] += time.perf_counter() - t0
        return out

    paths = [f["path"] for f in files if f["max_seq"] > after and f["min_seq"] <= upto]
    seq = pc.field(cfg.sequence_col)
    events = timed("read", lambda: pads.dataset(paths).to_table(
        filter=(seq > after) & (seq <= upto)))
    timed("key_hash", key_hash, events, cfg.pk)
    norm = NormalizeBatch(unified, m_new.renames, [cfg.op_col, cfg.sequence_col],
                          cfg.pk, cfg.num_partitions)
    events = timed("normalize", norm, events)
    reduced = timed("lww", lww_dedup, events, cfg.pk, cfg.sequence_col)

    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        frags = timed("stage_write", make_stage_writer(scratch), reduced).to_pylist()
        refs: dict[int, list[str]] = {}
        for fr in frags:
            refs.setdefault(int(fr["pid"]), []).append(f"{fr['file']}#{fr['rg']}")
        vtypes = {f.name: f.type for f in unified}
        tgt = target_schema(eff, vtypes)
        ts = deterministic_merge_ts(upto)
        for pid, pid_refs in sorted(refs.items()):
            staged = timed("staged_read", read_staged_pid, scratch, pid_refs, pid)
            entry = m_old.partitions.get(str(pid)) if m_old is not None else None
            old = None
            if entry is not None and entry.get("file"):
                old = timed("staged_read", lambda: align_to_schema(
                    pq.read_table(store.abs_path(entry["file"])), tgt, m_new.renames))
            staged = timed("lww_merge", lww_dedup, staged, cfg.pk, cfg.sequence_col)
            res = timed("merge", merge_partition, old, staged, eff, ts)
            out = os.path.join(scratch, f"part-{pid}.parquet")
            timed("write", lambda: pq.write_table(res.table, out, compression="zstd"))
            if res.history.num_rows:
                timed("write", lambda: pq.write_table(
                    res.history, out + ".hist", compression="zstd"))
            timed("zones", column_zones, res.table)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    stage_floor = (t["read"] + t["normalize"] + t["lww"] + t["stage_write"]) / parallelism
    merge_work = (t["staged_read"] + t["lww_merge"] + t["merge"] + t["write"]
                  + t["zones"])
    merge_floor = merge_work / min(parallelism, max(1, len(refs)))
    return {"kernels": t, "stage_floor_s": stage_floor, "merge_floor_s": merge_floor,
            "events": int(upto - after), "partitions": len(refs)}
