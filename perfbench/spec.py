"""Workload shapes of the CDC benchmark (see README.md for why each exists).

Every workload replays ``repo_files`` (copy-on-write, soft delete, history
on) over 8 partitions, with datagen's default hot head: 2% of keys take
30% of the traffic, and about 15% of events are deletes that are later
re-inserted.
"""

NUM_PARTITIONS = 8

# Ray CPU slots: one, whatever the host has. It keeps runs comparable
# across hosts and leaves the rest of a shared host alone; the run record
# states the host's CPU count beside it.
NUM_CPUS = 1

WORKLOADS = {
    # closed loop of replay_stream; ~2.4 KB of content per event
    "bulk_wide": dict(
        kind="bulk", keys=12_000, events=48_000, batches=4, shards=8,
        content_repeat_mean=40,
    ),
    # same shape with ~150 B rows: per-row kernels outweigh bytes moved
    "bulk_narrow": dict(
        kind="bulk", keys=120_000, events=192_000, batches=4, shards=8,
        content_repeat_mean=1,
    ),
    # open loop over a committed wide base: chunks fall due on a schedule
    "tail_mixed": dict(
        kind="tail", keys=20_000, base_events=30_000, chunk_events=50,
        chunk_interval_s=0.1, content_repeat_mean=40,
    ),
}

# read mix: bulk runs it after each pass, tail after every replay
BULK_LOOKUPS = 50
BULK_DIFFS = 1
TAIL_LOOKUPS = 8

# a bulk run starts passes until --seconds have gone by, and makes at
# least this many, so that its medians over passes have something to
# take the middle of; the run length, not the work, stays fixed, which
# keeps runs on a slowed-down shared host inside their time budget
MIN_BULK_PASSES = 2

# the tail schedule spans this share of --seconds; the rest drains the
# last chunks and runs the last read mix
TAIL_SCHEDULE_SHARE = 0.85
TAIL_MIN_CHUNKS = 10


def tail_chunks(seconds: float) -> int:
    w = WORKLOADS["tail_mixed"]
    return max(TAIL_MIN_CHUNKS, int(TAIL_SCHEDULE_SHARE * seconds / w["chunk_interval_s"]))
