"""In-memory span tracer that wraps the program's layers from outside.

Nothing here is imported by the program: :func:`install` replaces the
public entry points of each layer (functions, methods, and every module
that imported a function by name) with timing wrappers, so a traced run
measures the unmodified code. A span is ``(name, start, end, parent,
op)``; the tracer keeps

* per ``(op kind, span name)`` aggregates: calls, self time, total time,
  the longest span and an optional measured quantity (bytes), updated
  online so memory stays flat however long the run is;
* the first :data:`SPAN_SAMPLE` raw spans, written out at exit;
* every duration of a few rare, stall-sized spans (checkpoints, shard
  splits) so their median can be reported.

Self time is a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from typing import Callable, Optional

SPAN_SAMPLE = 20000

#: Span names whose every duration is kept (they are rare and their
#: distribution, not only their sum, is reported).
KEEP_DURATIONS = ("coordinator.split_gap_at", "durable.checkpoint")


def _len_result(_args, result) -> int:
    return len(result)


def _len_arg(index: int) -> Callable:
    def measure(args, _result) -> int:
        return len(args[index])

    return measure


def _learned(_args, result) -> int:
    return result


def _checkpoint_image_bytes(args, _result) -> int:
    # StableStore.write_atomic(self, name, data): checkpoint images only.
    return len(args[2]) if str(args[1]).startswith("ckpt-") else 0


#: ``(layer, module, qualname, options)``. The span name is
#: ``layer + "." + function name``. ``measure`` adds a quantity to the
#: span's aggregate; ``count_only`` counts calls without timing them
#: (for calls made once per trie leaf, where timing would swamp the
#: scan it measures); ``sites`` restricts the replacement to the named
#: importing modules.
TARGETS = [
    # serving (server side; the generator's own client is timed per op)
    ("serving", "repro.serving.server", "ServingServer._decode_request", {}),
    ("serving", "repro.serving.server", "ServingServer._execute", {}),
    ("serving", "repro.serving.server", "ServingServer._open_group", {}),
    ("serving", "repro.serving.server", "ServingServer._close_group", {}),
    ("serving", "repro.serving.server", "ServingServer._run_control", {}),
    # distributed.codec
    ("codec", "repro.distributed.codec", "encode_op", {"measure": _len_result}),
    ("codec", "repro.distributed.codec", "decode_op", {}),
    ("codec", "repro.distributed.codec", "encode_reply", {"measure": _len_result}),
    ("codec", "repro.distributed.codec", "decode_reply", {}),
    ("codec", "repro.distributed.codec", "encode_value", {}),
    ("codec", "repro.distributed.codec", "decode_value", {}),
    ("codec", "repro.distributed.codec", "roundtrip_op", {}),
    ("codec", "repro.distributed.codec", "roundtrip_reply", {}),
    ("codec", "repro.distributed.codec", "pack_frame", {}),
    ("codec", "repro.distributed.codec", "unpack_frame", {}),
    # distributed.client and core.image
    ("client", "repro.distributed.client", "DistributedFile.insert", {}),
    ("client", "repro.distributed.client", "DistributedFile.put", {}),
    ("client", "repro.distributed.client", "DistributedFile.get", {}),
    ("client", "repro.distributed.client", "DistributedFile.contains", {}),
    ("client", "repro.distributed.client", "DistributedFile.delete", {}),
    ("image", "repro.core.image", "TrieImage.shard_for_key", {}),
    ("image", "repro.core.image", "TrieImage.patch", {"measure": _learned}),
    # distributed.router
    ("router", "repro.distributed.router", "InProcessTransport.client_send", {}),
    ("router", "repro.distributed.router", "InProcessTransport.forward", {}),
    ("router", "repro.distributed.router", "InProcessTransport.replicate", {}),
    # distributed.server
    ("shard", "repro.distributed.server", "ShardServer.handle", {}),
    # distributed.coordinator
    ("coordinator", "repro.distributed.coordinator", "Coordinator.owner_of", {}),
    ("coordinator", "repro.distributed.coordinator", "Coordinator.iam_for_key", {}),
    ("coordinator", "repro.distributed.coordinator", "Coordinator.maybe_split", {}),
    ("coordinator", "repro.distributed.coordinator", "Coordinator.split_gap_at", {}),
    # storage.recovery and storage.wal
    ("durable", "repro.storage.recovery", "DurableFile.insert", {}),
    ("durable", "repro.storage.recovery", "DurableFile.put", {}),
    ("durable", "repro.storage.recovery", "DurableFile.delete", {}),
    ("durable", "repro.storage.recovery", "DurableFile.get", {}),
    ("durable", "repro.storage.recovery", "DurableFile.contains", {}),
    ("durable", "repro.storage.recovery", "DurableFile.checkpoint", {}),
    ("wal", "repro.storage.wal", "WALWriter.append", {}),
    ("wal", "repro.storage.wal", "WALWriter.commit", {}),
    ("stable", "repro.storage.wal", "StableStore.append", {"measure": _len_arg(2)}),
    ("stable", "repro.storage.wal", "StableStore.fsync", {}),
    ("stable", "repro.storage.wal", "StableStore.write_atomic",
     {"measure": _checkpoint_image_bytes}),
    # core.file, core.trie and core.compact
    ("file", "repro.core.file", "THFile.get", {}),
    ("file", "repro.core.file", "THFile.contains", {}),
    ("file", "repro.core.file", "THFile.insert", {}),
    ("file", "repro.core.file", "THFile.put", {}),
    ("file", "repro.core.file", "THFile.delete", {}),
    ("file", "repro.core.file", "THFile.range_items", {"iterator": True}),
    ("file", "repro.core.file", "THFile._split", {}),
    ("trie", "repro.core.trie", "Trie.lookup", {}),
    ("trie", "repro.core.trie", "Trie.search", {}),
    ("trie", "repro.core.trie", "Trie.leaves_in_order", {}),
    ("trie", "repro.core.compact", "CompactTrie.lookup", {}),
    ("trie", "repro.core.compact", "CompactTrie.search", {}),
    # core.range_query
    ("range", "repro.core.range_query", "scan", {}),
    ("range", "repro.core.keys", "prefix_gt",
     {"count_only": True, "sites": ("repro.core.range_query",)}),
    # storage.buckets and storage.disk
    ("buckets", "repro.storage.buckets", "BucketStore.read", {}),
    ("buckets", "repro.storage.buckets", "BucketStore.write", {}),
    ("buckets", "repro.storage.buckets", "BucketStore.allocate", {}),
    ("disk", "repro.storage.disk", "SimulatedDisk.read", {}),
    ("disk", "repro.storage.disk", "SimulatedDisk.write", {}),
    # obs.metrics
    ("obs", "repro.obs.metrics", "MetricsRegistry.counter", {}),
    ("obs", "repro.obs.metrics", "MetricsRegistry.gauge", {}),
    ("obs", "repro.obs.metrics", "MetricsRegistry.histogram", {}),
    ("obs", "repro.obs.metrics", "Counter.inc", {}),
    ("obs", "repro.obs.metrics", "Gauge.set", {}),
    ("obs", "repro.obs.metrics", "Histogram.observe", {}),
    # check.hook
    ("check", "repro.check.hook", "maybe_audit", {}),
]


class Tracer:
    """Span stack, online aggregates and a bounded raw-span sample."""

    def __init__(self) -> None:
        self.on = False
        #: The op kind aggregates are keyed by (set by the workload loop).
        self.kind = "setup"
        #: The id of the op being executed (``None`` between ops).
        self.op: Optional[int] = None
        self.agg: dict[tuple[str, str], list] = {}
        self.durations: dict[str, list[int]] = {n: [] for n in KEEP_DURATIONS}
        self.sample: list[tuple] = []
        #: Raw spans are kept only while this is set (the counting pass).
        self.sampling = False
        self._stack: list[list] = []
        self._next_id = 0

    # -- recording -----------------------------------------------------
    def enter(self) -> list:
        """Open a span; the returned frame is handed back to :meth:`exit`."""
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [0, self._next_id, parent, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, name: str, quantity: int = 0, calls: int = 1) -> None:
        """Close ``frame`` as span ``name``.

        ``calls=0`` adds time to a call already counted (an iterator
        resumed).
        """
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        child_ns, span_id, parent, start = frame
        duration = end - start
        if stack:
            stack[-1][0] += duration
        self._record(name, duration, duration - child_ns, quantity, calls)
        if name in self.durations:
            self.durations[name].append(duration)
        if self.sampling and len(self.sample) < SPAN_SAMPLE:
            self.sample.append((name, start, end, span_id, parent, self.op))

    def _record(self, name: str, duration: int, self_ns: int, quantity: int,
                calls: int) -> None:
        slot = self.agg.get((self.kind, name))
        if slot is None:
            slot = self.agg[(self.kind, name)] = [0, 0, 0, 0, 0]
        slot[0] += calls
        slot[1] += self_ns
        slot[2] += duration
        if duration > slot[3]:
            slot[3] = duration
        slot[4] += quantity

    def count(self, name: str) -> None:
        slot = self.agg.get((self.kind, name))
        if slot is None:
            slot = self.agg[(self.kind, name)] = [0, 0, 0, 0, 0]
        slot[0] += 1

    def reset(self) -> None:
        """Forget every aggregate (the raw-span sample is kept)."""
        self.agg = {}
        self.durations = {n: [] for n in KEEP_DURATIONS}

    # -- reading -------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregates as ``{kind: {name: [calls, self, total, max, qty]}}``."""
        out: dict[str, dict] = {}
        for (kind, name), slot in self.agg.items():
            out.setdefault(kind, {})[name] = list(slot)
        return {"agg": out, "durations": {k: list(v) for k, v in self.durations.items()}}

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write aggregates, kept durations and the raw-span sample."""
        payload = self.snapshot()
        payload["spans"] = [list(s) for s in self.sample]
        payload["span_fields"] = ["name", "start_ns", "end_ns", "id", "parent", "op"]
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _wrap_call(tracer: Tracer, fn: Callable, name: str, options: dict) -> Callable:
    measure = options.get("measure")
    if options.get("count_only"):
        def counted(*args, **kwargs):
            if tracer.on:
                tracer.count(name)
            return fn(*args, **kwargs)

        return counted
    if options.get("iterator") or inspect.isgeneratorfunction(fn):
        def iterating(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            return _timed_iter(tracer, name, fn, args, kwargs)

        return iterating

    def timed(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        frame = tracer.enter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.exit(frame, name, measure(args, result) if measure else 0)

    return timed


def _timed_iter(tracer: Tracer, name: str, fn: Callable, args, kwargs):
    """Time creation and every resumption of an iterator as one span name.

    The call counts once; each resumption adds its self time.
    """
    frame = tracer.enter()
    try:
        inner = iter(fn(*args, **kwargs))
    finally:
        tracer.exit(frame, name)
    while True:
        frame = tracer.enter()
        try:
            item = next(inner)
        except StopIteration:
            return
        finally:
            tracer.exit(frame, name, calls=0)
        yield item


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS`.

    A plain function is replaced in its defining module and in every
    loaded ``repro`` module that bound it by name (the import site), so
    ``from .codec import encode_op`` callers are traced too. Methods are
    replaced on their class, keeping ``staticmethod`` wrappers.
    """
    for package in ("repro.serving", "repro.distributed", "repro.storage",
                    "repro.core", "repro.obs", "repro.check"):
        importlib.import_module(package)
    for layer, module_name, qualname, options in TARGETS:
        owner, attr = _resolve(module_name, qualname)
        name = f"{layer}.{attr.lstrip('_')}"
        if inspect.isclass(owner):
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(
                    _wrap_call(tracer, raw.__func__, name, options)))
            else:
                setattr(owner, attr, _wrap_call(tracer, raw, name, options))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap_call(tracer, original, name, options)
        sites = options.get("sites")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if sites is not None and mod_name not in sites:
                continue
            # Any binding name: ``import scan as local_scan`` counts too.
            for bound, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, bound, wrapped)


def merge_agg(*aggs: dict) -> dict:
    """Sum :meth:`Tracer.snapshot` ``agg`` maps kind by kind."""
    out: dict[str, dict] = {}
    for agg in aggs:
        for kind, rows in agg.items():
            for name, slot in rows.items():
                acc = out.setdefault(kind, {}).setdefault(name, [0, 0, 0, 0, 0])
                for i in (0, 1, 2, 4):
                    acc[i] += slot[i]
                acc[3] = max(acc[3], slot[3])
    return out


def self_times(agg: dict) -> dict[str, list]:
    """``[calls, self_ns, total_ns, max_ns, qty]`` per span, over all op kinds."""
    return merge_agg(*({"all": rows} for rows in agg.values())).get("all", {})


def diff_agg(later: dict, earlier: dict) -> dict:
    """``later - earlier`` for two :meth:`Tracer.snapshot` ``agg`` maps.

    A maximum cannot be subtracted; it is left at 0 (take phase maxima
    from the kept durations instead).
    """
    out: dict[str, dict] = {}
    for kind, rows in later.items():
        base = earlier.get(kind, {})
        for name, slot in rows.items():
            prev = base.get(name, [0, 0, 0, 0, 0])
            delta = [slot[0] - prev[0], slot[1] - prev[1], slot[2] - prev[2],
                     0, slot[4] - prev[4]]
            if delta[0] or delta[1]:
                out.setdefault(kind, {})[name] = delta
    return out
