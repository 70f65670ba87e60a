#!/usr/bin/env python3
"""Outside-in CDC benchmark of dbimport_ray.

    python3 perfbench/run.py --workload bulk_wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. One run:

1. generates the workload's input from ``--seed`` with
   ``dbimport_ray.datagen`` in a child process (untimed);
2. sets up: ``ray.init(num_cpus=NUM_CPUS)``, a warm-up replay, lookup and
   diff on a throwaway lake, and per iteration a fresh lake (plus the base
   load on ``tail_mixed``);
3. runs the workload loop for ``--seconds`` (workloads.py);
4. checks every lake it built against the DuckDB oracle (gate.py);
5. prints one provenance record, then as the last line the result:
   ``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
   metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Lakes, inputs and Ray's session files live under ``.bench_work/`` on the
checkout's own (disk-backed) filesystem and are removed at the end; run
records and span dumps go to ``.bench_out/``. README.md documents every
metric.
"""

from __future__ import annotations

import os
import sys

# Pin native thread pools to 1 before pyarrow or Ray load, as bench.py
# does: Ray accounts one CPU per task, Arrow's pools would span every core.
for _k, _v in (("OMP_NUM_THREADS", "1"), ("ARROW_NUM_THREADS", "1"),
               ("ARROW_IO_THREADS", "2"), ("POLARS_MAX_THREADS", "1")):
    os.environ.setdefault(_k, _v)
# Ray's own defaults that would make a run depend on the host around it:
# the memory monitor kills tasks when the whole host is short of memory,
# and usage stats reach out of the checkout.
for _k, _v in (("RAY_memory_monitor_refresh_ms", "0"), ("RAY_USAGE_STATS_ENABLED", "0")):
    os.environ.setdefault(_k, _v)

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, ROOT)
# Ray workers inherit the environment: let them import dbimport_ray too
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import dbimport_ray  # noqa: E402,F401  (fails fast outside a checkout)

from gate import check_table  # noqa: E402
from spec import NUM_CPUS, NUM_PARTITIONS, WORKLOADS, tail_chunks  # noqa: E402
from steal import StealClock  # noqa: E402

# Longest Ray session-dir prefix whose socket paths (session dir plus
# ``/sockets/plasma_store``) stay inside the 107-byte AF_UNIX limit.
RAY_TMP_MAX = 38

# Inputs are generated from ``--seed`` reduced into the range datagen's
# 64-bit hashing and numpy's seeding accept (any int is a valid --seed).
SEED_RANGE = 1 << 32

E2E_UNITS = {
    "events_per_s": "events/s",
    "commit_s.p50": "s",
    "lag_s.p50": "s",
    "lag_s.p90": "s",
    "lookup_s.p50": "s",
    "lookup_s.p90": "s",
    "changes_s.p50": "s",
    "write_amp": "B/B",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# --- /proc: the process tree of this run ---------------------------------
def _proc_table() -> dict[int, tuple[int, str, int]]:
    """pid -> (ppid, state, utime+stime+cutime+cstime in clock ticks)."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                st = f.read()
            rest = st[st.rindex(")") + 2:].split()
            out[int(d)] = (int(rest[1]), rest[0], sum(int(x) for x in rest[11:15]))
        except (OSError, ValueError, IndexError):  # the process just ended
            continue
    return out


def _tree() -> tuple[list[int], dict]:
    table = _proc_table()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, stack = [], [os.getpid()]
    while stack:
        p = stack.pop()
        out.append(p)
        stack.extend(kids.get(p, []))
    return out, table


def cpu_seconds() -> float:
    pids, table = _tree()
    return sum(table[p][2] for p in pids if p in table) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and every process under it (Ray's
    raylet, GCS and workers)."""
    kb = 0
    for p in _tree()[0]:
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            pass
    return kb / 1024.0


def wait_for_children(timeout_s: float = 30.0) -> None:
    """Reap every process this run started; kill what outlives the
    timeout."""
    deadline = time.monotonic() + timeout_s
    while True:
        pids, table = _tree()
        live = [p for p in pids[1:] if p in table and table[p][1] != "Z"]
        for p in pids[1:]:
            if p in table and table[p][0] == os.getpid():
                try:
                    os.waitpid(p, os.WNOHANG)
                except ChildProcessError:
                    pass
        if not live and not any(p in table for p in pids[1:]):
            return
        if time.monotonic() > deadline:
            for p in live:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.1)


def fs_type(path: str) -> str:
    path = os.path.realpath(path)
    best, typ = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            _dev, mnt, t = line.split()[:3]
            mnt = mnt.replace("\\040", " ")
            inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
            if inside and len(mnt) > len(best):
                best, typ = mnt, t
    return typ


def pct(xs: list[float], q: float) -> float:
    return float(np.percentile(xs, q)) if xs else float("nan")


# --- Ray ------------------------------------------------------------------
def start_ray(num_cpus: int) -> str:
    import ray
    from ray.data import DataContext

    # Ray's session files, sockets and object store stay inside the
    # checkout. When the checkout's path is too long for a socket path, the
    # same directory is named through this process's cwd link in /proc.
    rel = os.path.join(".bench_work", f"r{os.getpid()}")
    tmp = os.path.join(ROOT, rel)
    if len(tmp) > RAY_TMP_MAX:
        tmp = os.path.join(f"/proc/{os.getpid()}/cwd", rel)
    os.makedirs(os.path.join(tmp, "plasma"))
    # address="local": a fresh cluster even when RAY_ADDRESS names another
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, _temp_dir=tmp,
             _plasma_directory=os.path.join(tmp, "plasma"),
             object_store_memory=512 << 20)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    import logging

    logging.getLogger("ray").setLevel(logging.ERROR)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return tmp


def warm_up(meta: dict, work: str) -> None:
    """First replay, lookup and diff of the session: worker spawn and the
    imports inside tasks, on a throwaway lake."""
    from workloads import new_engine

    eng = new_engine(os.path.join(work, "warm"))
    eng.replay(meta["warm"], upto_seq=499)
    eng.replay(meta["warm"])
    key = eng.arrow().slice(0, 1).select(["repo", "path"]).to_pylist()
    eng.lookup(key)
    eng.diff(1, 2)
    shutil.rmtree(os.path.join(work, "warm"), ignore_errors=True)


def stop_ray(ray_tmp: str) -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()
    wait_for_children()
    shutil.rmtree(ray_tmp, ignore_errors=True)


# --- metrics --------------------------------------------------------------
def bytes_written(lakes: list) -> int:
    """Partition bytes from the ledger plus history files, over the timed
    versions of every lake."""
    total = 0
    for eng, _final, _files, first in lakes:
        root = eng.store.root
        ledger, hist = os.path.join(root, "_metrics.jsonl"), os.path.join(root, "history")
        if not os.path.exists(ledger):  # nothing committed; the gate fails it
            continue
        with open(ledger) as f:
            recs = [json.loads(x) for x in f if x.strip()]
        total += sum(int(r.get("bytes", 0)) for r in recs if r.get("version", 0) >= first)
        for fn in os.listdir(hist) if os.path.isdir(hist) else []:
            if int(fn.split("-v")[1].split(".")[0]) >= first:
                total += os.path.getsize(os.path.join(hist, fn))
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else float("nan")


def per_pass(xs: list[float], starts: list[int], q: float) -> float:
    """Median over the bulk passes of each pass's q-th percentile of
    ``xs``; the percentile of all of ``xs`` when the run has no passes."""
    if not starts:
        return pct(xs, q)
    ends = starts[1:] + [len(xs)]
    return pct([pct(xs[a:b], q) for a, b in zip(starts, ends) if b > a], 50)


def e2e_metrics(s, ray_start_s: float) -> dict:
    """A metric without samples (every such operation failed) is NaN, which
    makes the run incorrect rather than crashing it."""
    return {
        "events_per_s": (pct(s.pass_rate, 50) if s.pass_rate
                         else _ratio(s.events, s.replay_wall_s)),
        "commit_s.p50": pct(s.replay_s, 50),
        "lag_s.p50": per_pass(s.lag_s, s.pass_lag_start, 50),
        "lag_s.p90": per_pass(s.lag_s, s.pass_lag_start, 90),
        "lookup_s.p50": per_pass(s.lookup_s, s.pass_lookup_start, 50),
        "lookup_s.p90": per_pass(s.lookup_s, s.pass_lookup_start, 90),
        "changes_s.p50": pct(s.diff_s, 50),
        "write_amp": _ratio(bytes_written(s.lakes), s.input_bytes),
        "peak_rss_mb": s.peak_rss_mb,
        "setup_s": ray_start_s + pct(s.iter_setup_s, 50),
    }


# --- one run --------------------------------------------------------------
def run(a) -> tuple[dict, dict]:
    from workloads import Samples, run_workload

    nproc = len(os.sched_getaffinity(0))
    work = os.path.join(ROOT, ".bench_work", f"{a.workload}-{a.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    chunks = tail_chunks(a.seconds) if WORKLOADS[a.workload]["kind"] == "tail" else 0
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", a.workload,
         "--seed", str(a.seed % SEED_RANGE), "--out", os.path.join(work, "input"),
         "--chunks", str(chunks)],
        check=True, stdout=subprocess.DEVNULL,
    )
    with open(os.path.join(work, "input", "meta.json")) as f:
        meta = json.load(f)

    import pyarrow
    import ray

    record = {
        "workload": a.workload, "seed": a.seed, "input_seed": a.seed % SEED_RANGE,
        "seconds": a.seconds,
        "trace": a.trace, "nproc": nproc, "num_cpus": NUM_CPUS,
        "ray": ray.__version__, "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
        "input_bytes": sum(f["bytes"] for f in meta["files"]),
        "lake_fs": fs_type(work),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "ARROW_NUM_THREADS")},
    }
    s = Samples(clock=StealClock())
    tracer = None
    ray_tmp = ""
    try:
        t0 = time.perf_counter()
        ray_tmp = start_ray(NUM_CPUS)
        warm_up(meta, work)
        ray_start_s = s.clock.corrected(t0, time.perf_counter())

        clock: dict = {}
        if a.trace:
            from tracing import Tracer

            tracer = Tracer()

        def on_timed():
            if tracer is not None:
                tracer.install(NUM_PARTITIONS)
            clock["t"], clock["cpu"] = time.perf_counter(), cpu_seconds()

        run_workload(meta, a.seconds, work, random.Random(a.seed), s, on_timed)
        cpu_busy = (cpu_seconds() - clock["cpu"]) / (time.perf_counter() - clock["t"])
        record["steal_share"] = s.clock.steal_share(clock["t"], time.perf_counter())
        s.peak_rss_mb = peak_rss_mb()
        if tracer is not None:
            tracer.restore()
            tracer.finish()

        gates = []
        for eng, final, files, _first in s.lakes:
            s.attempted += 1
            g = check_table(eng.store.root, files, final)
            gates.append(g)
            if not g["ok"]:
                s.failed += 1
                s.errors.extend(g["problems"][:5])
        e2e = e2e_metrics(s, ray_start_s)

        layer = {}
        if tracer is not None:
            from tracing import layer_metrics

            eng, _final, _files, _first = s.lakes[-1]
            layer = layer_metrics(tracer, s, meta, eng, NUM_CPUS, cpu_busy,
                                  os.path.join(work, "floor"))
            tag = f"{a.workload}-{a.seed}"
            tracer.dump(os.path.join(out_dir, f"trace-{tag}.json"),
                        {"record": record, "layer": layer})
    finally:
        s.clock.stop()
        if ray_tmp:
            stop_ray(ray_tmp)
        shutil.rmtree(work, ignore_errors=True)

    record.update({
        "iterations": len(s.lakes),
        "samples": {"replay": len(s.replay_s), "lag": len(s.lag_s),
                    "lookup": len(s.lookup_s), "diff": len(s.diff_s)},
        "ray_start_s": ray_start_s, "iteration_setup_s": s.iter_setup_s,
        "timed_wall_s": s.timed_wall_s, "backlog_max": s.backlog_max,
        "gates": [{k: g[k] for k in ("ok", "rows", "mismatched", "problems")} for g in gates],
        "errors": s.errors, "end_to_end": e2e,
    })
    with open(os.path.join(out_dir, f"run-{a.workload}-{a.seed}-t{a.trace}.json"), "w") as f:
        json.dump(record, f)
    if a.trace:
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    ok = s.failed == 0 and all(g["ok"] for g in gates) and all(
        np.isfinite(m["value"]) for m in metrics.values())
    if a.trace:
        ok = ok and layer["trace.phase_sum_frac"][0] >= 0.9
    result = {"correct": bool(ok), "attempted": s.attempted, "failed": s.failed,
              "metrics": metrics}
    return record, result


# --- tamper self-test ----------------------------------------------------
def self_test() -> int:
    """Build a small lake, check that the gate passes it, then tamper with
    copies of it in four ways and check that the gate catches each."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from dbimport_ray.datagen import generate_events
    from workloads import new_engine

    work = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray_tmp = ""
    try:
        events = generate_events(os.path.join(work, "events"), 500, 3000, seed=3,
                                 content_repeat_mean=2, rows_per_batch=1000)
        files = sorted(os.path.join(events, f) for f in os.listdir(events)
                       if f.endswith(".parquet"))
        ray_tmp = start_ray(NUM_CPUS)
        eng = new_engine(os.path.join(work, "lake"))
        eng.replay_stream(events, [1499, 2999])
        root = eng.store.root
        clean = check_table(root, files, 2999)

        def part_file(copy):
            with open(os.path.join(copy, "_manifest.json")) as f:
                m = json.load(f)
            return os.path.join(copy, sorted(e["file"] for e in m["partitions"].values())[0])

        def rewrite(copy, fn):
            p = part_file(copy)
            pq.write_table(fn(pq.read_table(p)), p)

        def set_first(col, value):
            def fn(t):
                vals = t[col].to_pylist()
                vals[0] = value(vals[0])
                i = t.schema.get_field_index(col)
                return t.set_column(i, t.schema.field(i), pc.cast(vals, t[col].type))
            return fn

        def drop_ledger_row(copy):
            p = os.path.join(copy, "_metrics.jsonl")
            with open(p) as f:
                lines = f.readlines()
            with open(p, "w") as f:
                f.writelines(lines[:-1])

        tampers = {
            "content": lambda c: rewrite(c, set_first("content", lambda v: (v or "") + " ")),
            "tombstone": lambda c: rewrite(c, set_first(
                "datalake_iud", lambda v: "U" if v == "D" else "D")),
            "missing_row": lambda c: rewrite(c, lambda t: t.slice(1)),
            "ledger_row": drop_ledger_row,
        }
        caught = {}
        for name, tamper in tampers.items():
            copy = os.path.join(work, f"tampered-{name}")
            shutil.copytree(root, copy)
            tamper(copy)
            r = check_table(copy, files, 2999)
            caught[name] = {"caught": not r["ok"], "problems": r["problems"]}
    finally:
        if ray_tmp:
            stop_ray(ray_tmp)
        shutil.rmtree(work, ignore_errors=True)
    ok = clean["ok"] and all(c["caught"] for c in caught.values())
    print(json.dumps({"self_test": "tampered lakes", "ok": ok,
                      "clean": clean["problems"], "tampered": caught}))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if a.workload is None:
        ap.error("--workload is required")
    record, result = run(a)
    if not result["correct"]:
        print("incorrect run:", json.dumps(record["errors"] or record["gates"]),
              file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
