"""Correctness gate: the committed table against a DuckDB oracle.

The oracle shares no code with the engine. It reads the lake's own JSON
files (manifest, checkpoint, ledger) and the input event files, and
recomputes the final table with SQL:

- the ledger's committed ``(after_seq, upto_seq]`` ranges must tile the
  consumed input with one row per version, and the checkpoint must hold
  no pending batch;
- inside each range the last event per key wins (batch-wise LWW);
- a key has a row once any batch winner was not a delete; the row is a
  tombstone when the key's last winner was a delete; its values are those
  of its last non-delete winner.

Each row is compared by primary key on its tombstone flag and the sha256
of its value columns, and the row counts must match.
"""

from __future__ import annotations

import json
import os

VALUE_COLS = ("commit", "lang", "content")


def _row_hash(prefix: str = "") -> str:
    parts = ", ".join(f"coalesce({prefix}{c}, '<null>')" for c in VALUE_COLS)
    return f"sha256(concat_ws(chr(31), {parts}))"


def _sql_list(paths: list[str]) -> str:
    return "[" + ", ".join("'" + p.replace("'", "''") + "'" for p in paths) + "]"


def check_table(table_root: str, input_files: list[str], final_seq: int) -> dict:
    """Compare the committed table under ``table_root`` with the oracle
    over ``input_files``; ``final_seq`` is the last sequence the run
    replayed. Returns ``{"ok", "problems", "rows", "mismatched"}``."""
    import duckdb

    problems: list[str] = []
    with open(os.path.join(table_root, "_manifest.json")) as f:
        manifest = json.load(f)
    with open(os.path.join(table_root, "_checkpoint.json")) as f:
        ckpt = json.load(f)
    with open(os.path.join(table_root, "_metrics.jsonl")) as f:
        ledger = [json.loads(line) for line in f if line.strip()]
    ledger = [r for r in ledger if "after_seq" in r]

    if ckpt.get("pending_seq") is not None:
        problems.append(f"uncommitted batch pending at seq {ckpt['pending_seq']}")
    versions = [r["version"] for r in ledger]
    if versions != list(range(1, len(ledger) + 1)):
        problems.append(f"ledger versions are not one row per version: {versions}")
    prev = -1
    for r in ledger:
        if r["after_seq"] != prev or r["upto_seq"] <= r["after_seq"]:
            problems.append(f"ledger range ({r['after_seq']}, {r['upto_seq']}] "
                            f"does not follow {prev}")
        prev = r["upto_seq"]
    if prev != final_seq or manifest.get("committed_seq") != final_seq:
        problems.append(f"committed through {prev} (manifest "
                        f"{manifest.get('committed_seq')}), expected {final_seq}")
    if manifest.get("version") != len(ledger):
        problems.append(f"manifest version {manifest.get('version')} but "
                        f"{len(ledger)} ledger rows")

    con = duckdb.connect()
    con.execute("SET threads = 1")
    con.execute("CREATE TABLE b(batch INT, after_seq BIGINT, upto_seq BIGINT)")
    con.executemany("INSERT INTO b VALUES (?, ?, ?)",
                    [(r["version"], r["after_seq"], r["upto_seq"]) for r in ledger])
    con.execute(f"""
        CREATE TABLE win AS
        SELECT * EXCLUDE (rn) FROM (
            SELECT e.*, b.batch, row_number() OVER (
                PARTITION BY e.repo, e.path, b.batch
                ORDER BY e.sequence_id DESC) AS rn
            FROM read_parquet({_sql_list(input_files)}) e
            JOIN b ON e.sequence_id > b.after_seq AND e.sequence_id <= b.upto_seq
        ) WHERE rn = 1
    """)
    con.execute(f"""
        CREATE TABLE expect AS
        SELECT repo, path, tomb, h FROM (
            SELECT repo, path,
                   arg_max(op, sequence_id) = 'D' AS tomb,
                   arg_max({_row_hash()}, sequence_id) FILTER (WHERE op <> 'D') AS h,
                   count(*) FILTER (WHERE op <> 'D') AS live_images
            FROM win GROUP BY repo, path
        ) WHERE live_images > 0
    """)
    files = [os.path.join(table_root, e["file"])
             for e in manifest.get("partitions", {}).values() if e.get("file")]
    if not files:
        con.execute("CREATE TABLE got(repo VARCHAR, path VARCHAR, tomb BOOLEAN, h VARCHAR)")
    else:
        con.execute(f"""
            CREATE TABLE got AS
            SELECT repo, path, coalesce(datalake_iud = 'D', false) AS tomb,
                   {_row_hash()} AS h
            FROM read_parquet({_sql_list(files)})
        """)
    n_exp = con.execute("SELECT count(*) FROM expect").fetchone()[0]
    n_got, n_keys = con.execute(
        "SELECT count(*), count(DISTINCT (repo, path)) FROM got").fetchone()
    mismatched = con.execute("""
        SELECT count(*) FROM expect x FULL OUTER JOIN got g
          ON x.repo = g.repo AND x.path = g.path
        WHERE x.repo IS NULL OR g.repo IS NULL
           OR x.tomb IS DISTINCT FROM g.tomb OR x.h IS DISTINCT FROM g.h
    """).fetchone()[0]
    con.close()
    if n_got != n_exp:
        problems.append(f"row count {n_got}, oracle {n_exp}")
    if n_keys != n_got:
        problems.append(f"{n_got - n_keys} duplicate primary keys")
    if mismatched:
        problems.append(f"{mismatched} rows differ from the oracle")
    return {"ok": not problems, "problems": problems, "rows": n_got,
            "mismatched": mismatched}
