"""Input generation for the CDC benchmark, run as its own process.

    python3 perfbench/gen.py --workload bulk_wide --seed 7 --out DIR [--chunks N]

Writes the workload's change events with ``dbimport_ray.datagen`` under
DIR and a ``meta.json`` that lists every input file with its sequence
range and byte size, the replay boundaries and a seeded sample of lookup
keys. It runs in a child process so that its memory peak and CPU time stay
out of the benchmark's own measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

sys.path.insert(0, os.getcwd())

from dbimport_ray.datagen import generate_events  # noqa: E402

from spec import WORKLOADS  # noqa: E402

LOOKUP_SAMPLE = 400


def _file_meta(path: str) -> dict:
    md = pq.read_metadata(path)
    seqs = pq.read_table(path, columns=["sequence_id"])["sequence_id"]
    mm = pc.min_max(seqs)
    return {
        "path": os.path.abspath(path),
        "min_seq": int(mm["min"].as_py()),
        "max_seq": int(mm["max"].as_py()),
        "rows": int(md.num_rows),
        "bytes": os.path.getsize(path),
    }


def _key_sample(files: list[str], boundaries: list[int], seed: int) -> list[dict]:
    """Keys certain to have a row once the batches ending at
    ``boundaries`` are committed: keys with a batch that holds events for
    them but no delete. That batch's last event is an insert or update,
    and soft delete keeps the row from then on. (A key inserted and
    deleted inside one batch never gets a row.)"""
    t = pa.concat_tables(
        pq.read_table(f, columns=["sequence_id", "op", "repo", "path"]) for f in files)
    t = t.filter(pc.less_equal(t["sequence_id"], boundaries[-1]))
    df = t.to_pandas()
    df["batch"] = np.searchsorted(np.asarray(boundaries), df["sequence_id"].to_numpy())
    df["is_d"] = df["op"] == "D"
    any_d = df.groupby(["repo", "path", "batch"], sort=True)["is_d"].any()
    keys = sorted({(r, p) for (r, p, _b), d in any_d.items() if not d})
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(keys), size=min(LOOKUP_SAMPLE, len(keys)), replace=False)
    return [{"repo": keys[i][0], "path": keys[i][1]} for i in sorted(pick)]


def generate(workload: str, seed: int, out: str, chunks: int) -> dict:
    w = WORKLOADS[workload]
    os.makedirs(out, exist_ok=True)
    # a tiny stream for the set-up warm-up replay (imports, worker spawn)
    warm = generate_events(
        os.path.join(out, "warm.parquet"), 200, 1000, seed=seed + 1,
        content_repeat_mean=w["content_repeat_mean"],
    )
    meta = {"workload": workload, "seed": seed, "warm": os.path.abspath(warm)}
    if w["kind"] == "bulk":
        events_dir = os.path.join(out, "events")
        generate_events(
            events_dir, w["keys"], w["events"], seed=seed,
            content_repeat_mean=w["content_repeat_mean"],
            rows_per_batch=w["events"] // w["shards"],
        )
        files = sorted(
            os.path.join(events_dir, f)
            for f in os.listdir(events_dir)
            if f.endswith(".parquet")
        )
        per = w["events"] // w["batches"]
        meta["events_path"] = os.path.abspath(events_dir)
        meta["boundaries"] = [per * (i + 1) - 1 for i in range(w["batches"])]
        meta["files"] = [_file_meta(f) for f in files]
        meta["lookup_keys"] = _key_sample(files, meta["boundaries"], seed)
        return meta

    # tail: one stream, split into a base file and one file per chunk
    n_base, chunk = w["base_events"], w["chunk_events"]
    total = n_base + chunks * chunk
    stream = generate_events(
        os.path.join(out, "stream.parquet"), w["keys"], total, seed=seed,
        content_repeat_mean=w["content_repeat_mean"], rows_per_batch=chunk,
    )
    t = pq.read_table(stream)
    os.remove(stream)
    base = os.path.join(out, "base.parquet")
    pq.write_table(t.slice(0, n_base), base, compression="snappy",
                   row_group_size=max(1, n_base // 8))
    chunk_dir = os.path.join(out, "chunks")
    os.makedirs(chunk_dir)
    chunk_files = []
    for k in range(chunks):
        p = os.path.join(chunk_dir, f"chunk-{k:05d}.parquet")
        pq.write_table(t.slice(n_base + k * chunk, chunk), p, compression="snappy")
        chunk_files.append(p)
    meta["base"] = _file_meta(base)
    meta["chunks"] = [_file_meta(p) for p in chunk_files]
    meta["files"] = [meta["base"]] + meta["chunks"]
    meta["lookup_keys"] = _key_sample([base], [n_base - 1], seed)
    return meta


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--chunks", type=int, default=0)
    a = ap.parse_args()
    meta = generate(a.workload, a.seed, a.out, a.chunks)
    with open(os.path.join(a.out, "meta.json"), "w") as f:
        json.dump(meta, f)


if __name__ == "__main__":
    main()
