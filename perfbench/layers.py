"""Per-layer metrics from tracer aggregates.

Every workload reports every per-layer metric; a layer a workload never
reaches reports zero calls and zero time (``local-read`` has no codec,
``serve-mixed`` has no scans). That zero is measured, not assumed: the
wrappers were installed and nothing called them.
"""

from __future__ import annotations

from .common import median, ratio
from .tracer import self_times

ENCODE = ("codec.encode_op", "codec.encode_reply", "codec.encode_value", "codec.pack_frame")
DECODE = ("codec.decode_op", "codec.decode_reply", "codec.decode_value", "codec.unpack_frame")
DURABLE_OPS = ("durable.insert", "durable.put", "durable.delete", "durable.get",
               "durable.contains")
CLIENT_OPS = ("client.insert", "client.put", "client.get", "client.contains",
              "client.delete")


def _sum(rows: dict, names, field: int) -> int:
    return sum(rows[n][field] for n in names if n in rows)


def _layer(rows: dict, layer: str, field: int) -> int:
    prefix = layer + "."
    return sum(slot[field] for name, slot in rows.items() if name.startswith(prefix))


def _kind(agg: dict, kind: str, name: str, field: int = 0) -> int:
    slot = agg.get(kind, {}).get(name)
    return slot[field] if slot else 0


def layer_metrics(agg: dict, ops: dict, durations: dict, extras: dict) -> dict:
    """All per-layer metrics (name -> value) for one measured phase.

    ``agg`` is ``{op kind: {span: [calls, self_ns, total_ns, max_ns,
    quantity]}}``; ``ops`` counts the phase's ops by kind (``hit``,
    ``miss``, ``scan``, ``insert``, ``put``); ``extras`` carries what the
    workload measured itself (fabric messages, image learning, trie
    size, serving stats, generator lateness).
    """
    rows = self_times(agg)
    n_ops = sum(ops.values())
    writes = ops.get("insert", 0) + ops.get("put", 0)
    us = 1e-3  # ns -> us
    checkpoints = rows.get("durable.checkpoint", [0])[0]
    lookups = _sum(rows, ("trie.lookup",), 0)
    gets = _sum(rows, ("file.get", "file.contains"), 0)
    commits = _sum(rows, ("wal.commit",), 0)
    image_calls = _sum(rows, ("image.shard_for_key",), 0)
    out = {
        "codec.calls_per_op": ratio(_layer(rows, "codec", 0), n_ops),
        "codec.bytes_per_op": ratio(_sum(rows, ("codec.encode_op", "codec.encode_reply"), 4), n_ops),
        "codec.encode_us": ratio(_sum(rows, ENCODE, 1) * us, n_ops),
        "codec.decode_us": ratio(_sum(rows, DECODE, 1) * us, n_ops),
        "client.op_self_us": ratio(_sum(rows, CLIENT_OPS, 1) * us, n_ops),
        "image.shard_for_key_us": ratio(_sum(rows, ("image.shard_for_key",), 2) * us, image_calls),
        "image.iam_boundaries": float(_sum(rows, ("image.patch",), 4)),
        "obs.registry_calls_per_op": ratio(_layer(rows, "obs", 0), n_ops),
        "obs.registry_us_per_op": ratio(_layer(rows, "obs", 1) * us, n_ops),
        "check.audit_calls_per_op": ratio(_layer(rows, "check", 0), n_ops),
        "check.audit_us_per_op": ratio(_layer(rows, "check", 1) * us, n_ops),
        "shard.handle_self_us": ratio(_sum(rows, ("shard.handle",), 1) * us, n_ops),
        "coordinator.shard_splits": float(_sum(rows, ("coordinator.split_gap_at",), 0)),
        "coordinator.split_ms_max": max(durations.get("coordinator.split_gap_at") or [0]) * 1e-6,
        "durable.op_self_us": ratio(_sum(rows, DURABLE_OPS, 1) * us, n_ops),
        "durable.checkpoints": float(checkpoints),
        "durable.checkpoint_ms_p50": median(durations.get("durable.checkpoint", [])) * 1e-6,
        "durable.checkpoint_bytes": ratio(_sum(rows, ("stable.write_atomic",), 4), checkpoints),
        "wal.appends_per_write": ratio(_sum(rows, ("wal.append",), 0), writes),
        "wal.fsyncs_per_write": ratio(_sum(rows, ("stable.fsync",), 0), writes),
        "wal.bytes_per_write": ratio(_sum(rows, ("stable.append",), 4), writes),
        "wal.commit_us": ratio(_sum(rows, ("wal.commit",), 2) * us, commits),
        "file.get_self_us": ratio(_sum(rows, ("file.get", "file.contains"), 1) * us, gets),
        "file.splits_per_insert": ratio(_kind(agg, "insert", "file.split"), ops.get("insert", 0)),
        "trie.lookup_us": ratio(_sum(rows, ("trie.lookup",), 2) * us, lookups),
        "disk.reads_per_hit": ratio(_kind(agg, "hit", "disk.read"), ops.get("hit", 0)),
        "disk.reads_per_miss": ratio(_kind(agg, "miss", "disk.read"), ops.get("miss", 0)),
        "disk.writes_per_insert": ratio(_kind(agg, "insert", "disk.write"), ops.get("insert", 0)),
        "range.leaves_walked_per_scan": ratio(_kind(agg, "scan", "range.prefix_gt"), ops.get("scan", 0)),
        "range.bucket_reads_per_scan": ratio(_kind(agg, "scan", "disk.read"), ops.get("scan", 0)),
    }
    out.update(extras)
    return out


def phase_ops(agg: dict) -> dict:
    """Ops per kind in a phase, from the benchmark's own op spans."""
    return {kind: rows["bench.op"][0] for kind, rows in agg.items() if "bench.op" in rows}


def residual_ratio(agg: dict) -> float:
    """Share of the benchmark's ``bench.op`` root spans no layer span covers."""
    total = sum(rows["bench.op"][2] for rows in agg.values() if "bench.op" in rows)
    own = sum(rows["bench.op"][1] for rows in agg.values() if "bench.op" in rows)
    return ratio(own, total)
