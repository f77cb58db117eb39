"""``cluster-ingest``: an embedded, durable TH* writer.

Setup builds an in-process ``Cluster(shards=4, durable=True)`` (every
other parameter the program's default) and loads it through a warm
``DistributedFile``. Load is a *cold* client, so it learns the
partition from IAMs as it goes, in a single-caller closed loop. Every
block of 9 ops holds 4 inserts of fresh keys, 2 ``put`` overwrites and
3 ``get`` hits (the 40:20:30 mix).

Here A2 bucket splits, shard splits, one WAL append and fsync per op
and a checkpoint every 64 ops per shard do most of the work; the
client, codec, router and metrics registry run on every message with no
socket in the way. It is the write side that ``local-read`` leaves
idle, and the routed-op path whose cost against a direct ``THFile`` op
is the distributed layer's overhead.

The end-to-end figures are timed in blocks of ``BLOCK_OPS`` consecutive
ops (32 decks of the mix, about 50 ms). On a shared host the median op
runs at ~110 or ~185 µs by the host's state, which holds for seconds
to whole runs, so a figure over the run, or over its median block,
follows the share of the run spent in each state. ``ops_per_s`` and
``p50_us`` are a block's rate and median ``common.BEST_SHARE`` of the way
from the best block, and ``p99_us`` pools the ops of the quarter of
blocks whose median is lowest (``common.quiet_pool``), so checkpoints
and shard splits stay in the pool as often as they happen.

``write_amp`` counts every byte appended or atomically written to the
stable stores (through the store's own ``_physical`` write hook) over
the key and value bytes the phase's writes carried.
"""

from __future__ import annotations

import random
import string
import time
from array import array

from .common import (
    BEST_SHARE, QUIET_SHARE, Samples, best_window, blocks, deck_stream, median, p99,
    percentile, quiet_pool, ratio,
)

SHARDS = 4
PRELOAD = 4000
KEY_LENGTH = 8
SETUP_REPEATS = 3
#: Largest share of traced per-op time no layer span may cover: the
#: benchmark's own loop and result check around each call.
RESIDUAL_BOUND = 0.05
COUNT_PASS_OPS = 5000
DECK = ["insert"] * 4 + ["put"] * 2 + ["get"] * 3
BLOCK_OPS = 32 * len(DECK)
PARAMS = {
    "shards": SHARDS, "durable": True, "preload": PRELOAD, "key_length": KEY_LENGTH,
    "mix_per_9": "4 insert fresh, 2 put overwrite, 3 get hit",
    "client": "cold DistributedFile", "loop": "closed, 1 caller",
    "setup_repeats": SETUP_REPEATS, "count_pass_ops": COUNT_PASS_OPS,
    "timed_unit": f"blocks of {BLOCK_OPS} ops; rate and median {BEST_SHARE} of the way "
                  f"from the best, p99 over the {QUIET_SHARE} of blocks with lowest median",
}


class StoreBytes:
    """Bytes every stable store of the process writes, via its hook."""

    def __init__(self) -> None:
        self.total = 0

    def install(self) -> None:
        from repro.storage.wal import StableStore

        counter = self

        def _physical(store, kind, name, payload=b""):
            counter.total += len(payload)

        StableStore._physical = _physical


class Inputs:
    def __init__(self, seed: int):
        from repro.workloads.generators import KeyGenerator

        self.seed = seed
        self.preload = KeyGenerator(seed).uniform(PRELOAD, length=KEY_LENGTH)

    def ops(self, salt: str, existing: set):
        """Endless ops ``(kind, key, value)``; fresh keys avoid ``existing``.

        Gets and puts target the keys stored before the stream started
        and the ones it has inserted since.
        """
        rng = random.Random(f"{self.seed}/ops/{salt}")
        letters = string.ascii_lowercase
        known = sorted(existing)
        seen = set(existing)
        n = 0
        for kind in deck_stream(rng, DECK):
            n += 1
            if kind == "insert":
                while True:
                    key = "".join(rng.choice(letters) for _ in range(KEY_LENGTH))
                    if key not in seen:
                        break
                seen.add(key)
                known.append(key)
                yield "insert", key, f"i{n}"
            elif kind == "put":
                yield "put", rng.choice(known), f"p{n}"
            else:
                yield "get", rng.choice(known), None


def build(inputs: Inputs):
    from repro.distributed import Cluster

    cluster = Cluster(shards=SHARDS, durable=True)
    warm = cluster.client(warm=True)
    for key in inputs.preload:
        warm.insert(key, "v" + key)
    return cluster


def timed_setups(inputs: Inputs, repeats: int):
    times = []
    cluster = None
    for _ in range(repeats):
        cluster = None
        start = time.perf_counter()
        cluster = build(inputs)
        times.append(time.perf_counter() - start)
    return cluster, times


class Loop:
    def __init__(self, cluster, tracer=None):
        self.cluster = cluster
        self.client = cluster.client()  # cold: the TH* initial image
        self.tracer = tracer
        self.oracle = {}
        #: ``(start ns, latency ns)`` of every op that checked out.
        self.point = Samples()
        self.write_ns = array("q")
        self.ops = {"insert": 0, "put": 0, "hit": 0}
        self.user_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, stream, seconds: float = None, count: int = None) -> tuple[int, int]:
        """Closed loop for ``seconds`` or ``count`` ops.

        Returns the phase's start and its deadline (or end) in ns.
        """
        client = self.client
        oracle = self.oracle
        tracer = self.tracer
        clock = time.perf_counter_ns
        begin = clock()
        deadline = begin + int(seconds * 1e9) if seconds is not None else None
        done = 0
        for kind, key, value in stream:
            if count is not None and done >= count:
                break
            now = clock()
            if deadline is not None and now >= deadline:
                break
            self.attempted += 1
            label = "hit" if kind == "get" else kind
            if tracer is not None:
                tracer.kind = label
                frame = tracer.enter()
            t0 = clock()
            try:
                if kind == "insert":
                    client.insert(key, value)
                elif kind == "put":
                    client.put(key, value)
                else:
                    got = client.get(key)
            except Exception as exc:  # an op that raised is a failed op
                t1 = None
                self.failed += 1
                self.problems.append(f"{kind} {key!r} raised {exc!r}")
            else:
                t1 = clock()
            if tracer is not None:
                tracer.exit(frame, "bench.op")
            done += 1
            if t1 is None:
                continue
            if kind == "get":
                if got != oracle[key]:
                    self.problems.append(f"get {key!r} returned {got!r}, not {oracle[key]!r}")
                    continue
            else:
                oracle[key] = value
                self.user_bytes += len(key) + len(value)
                self.write_ns.append(t1 - t0)
            self.ops[label] += 1
            self.point.add(t0, t1 - t0)
        return begin, deadline if deadline is not None else clock()

    def figures(self, first: int = 0) -> dict:
        """``ops_per_s``, ``p50_us`` and the ``p99_us`` pool of the ops
        from index ``first`` on (see the module docstring)."""
        timed = blocks(self.point.start[first:], self.point.latency[first:], BLOCK_OPS)
        fastest = best_window([wall for wall, _ in timed], BEST_SHARE)
        latencies = [lat for _, lat in timed]
        return {
            "ops_per_s": BLOCK_OPS * 1e9 / fastest if fastest else 0.0,
            "p50_us": best_window([median(lat) for lat in latencies], BEST_SHARE) / 1e3,
            "pool": quiet_pool(latencies),
            "blocks": len(timed),
        }


def verify(cluster, oracle: dict) -> list[str]:
    """State equals the dict oracle; ``Cluster.check()`` and exactly-once hold."""
    problems = []
    stored = []
    for server in cluster.coordinator.servers.values():
        stored.extend(server.items())
    stored.sort()
    if stored != sorted(oracle.items()):
        missing = len(set(oracle.items()) - set(stored))
        extra = len(set(stored) - set(oracle.items()))
        problems.append(f"cluster state differs from the oracle ({missing} missing, {extra} unexpected)")
    try:
        cluster.check()
    except Exception as exc:  # any failed invariant fails the run
        problems.append(f"Cluster.check failed: {exc!r}")
    duplicates = cluster.router.duplicate_applies()
    if duplicates:
        problems.append(f"{duplicates} request ids applied more than once")
    return problems


def structure(cluster) -> dict:
    records = buckets = slots = cells = 0
    for server in cluster.coordinator.servers.values():
        engine = server.engine
        records += len(engine)
        buckets += engine.bucket_count()
        slots += engine.bucket_count() * engine.capacity
        cells += engine.trie_size()
    return {
        "records": records, "buckets": buckets, "cells": cells,
        "shards": len(cluster.coordinator.servers),
        "load_factor": ratio(records, slots),
    }


def _seeded_oracle(inputs: Inputs) -> dict:
    return {key: "v" + key for key in inputs.preload}


def run(seed: int, seconds: int, trace: bool) -> dict:
    inputs = Inputs(seed)
    store_bytes = StoreBytes()
    store_bytes.install()
    cluster, setup_times = timed_setups(inputs, SETUP_REPEATS if not trace else 1)
    loop = Loop(cluster)
    loop.oracle = _seeded_oracle(inputs)
    bytes_before = store_bytes.total
    begin, end = loop.run(inputs.ops("main", set(loop.oracle)),
                          seconds=seconds if not trace else seconds / 2)
    written = store_bytes.total - bytes_before
    problems = loop.problems[:5] + verify(cluster, loop.oracle)
    shape = structure(cluster)
    figures = loop.figures()
    ops_per_s = figures["ops_per_s"]
    result = {"attempted": loop.attempted, "failed": loop.failed,
              "problems": problems, "params": PARAMS}
    if not trace:
        pool = figures["pool"]
        result["metrics"] = {
            "setup_s": (median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "p50_us": (figures["p50_us"], "us"),
            "p99_us": (p99(pool) / 1e3, "us"),
        }
        result["report"] = {
            "write_p99_us": (percentile(loop.write_ns, 99) / 1e3, "us"),
            "write_amp": (ratio(written, loop.user_bytes), "ratio"),
            "load_factor": (shape["load_factor"], "ratio"),
            "error_ratio": (ratio(loop.failed, loop.attempted), "ratio"),
            "p99_whole_us": (percentile(loop.point.latency, 99) / 1e3, "us"),
            "point_ops": (len(loop.point), "count"),
            "p99_pool_ops": (len(pool), "count"),
            "blocks_timed": (figures["blocks"], "count"),
            "whole_ops_per_s": (ratio(len(loop.point) * 1e9, end - begin), "ops/s"),
            "whole_p50_us": (median(loop.point.latency) / 1e3, "us"),
            "writes": (len(loop.write_ns), "count"),
            "shards": (shape["shards"], "count"),
            "records": (shape["records"], "count"),
            "setup_min_s": (min(setup_times), "s"),
            "setup_max_s": (max(setup_times), "s"),
        }
        result["correct"] = not problems and loop.failed == 0
        return result
    return _traced(inputs, ops_per_s, seconds, result)


def _traced(inputs: Inputs, untraced_ops_per_s: float, seconds: int, result: dict) -> dict:
    from .layers import layer_metrics, phase_ops, residual_ratio
    from .tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    passes = []
    cluster = loop = None
    for _ in range(2):
        cluster, _ = timed_setups(inputs, 1)
        loop = Loop(cluster, tracer)
        loop.oracle = _seeded_oracle(inputs)
        stream = inputs.ops("count", set(loop.oracle))
        router = cluster.router
        messages, forwards = router.messages, router.forwards
        tracer.reset()
        tracer.on = True
        tracer.sampling = not passes
        loop.run(stream, count=COUNT_PASS_OPS)
        tracer.on = False
        tracer.sampling = False
        snap = tracer.snapshot()
        n_ops = sum(loop.ops.values())
        client = loop.client
        extras = {
            "router.messages_per_op": ratio(router.messages - messages, n_ops),
            "router.forwards_per_op": ratio(router.forwards - forwards, n_ops),
            "client.direct_ratio": 1.0 - ratio(client.ops_forwarded, client.ops_total),
            "trie.cells": float(structure(cluster)["cells"]),
        }
        passes.append(layer_metrics(snap["agg"], loop.ops, snap["durations"], extras))
        result["problems"] += loop.problems[:5] + verify(cluster, loop.oracle)
        loop.problems = []
    # The timed traced phase continues on the second counting pass's
    # cluster with the same client (its image is already warm).
    tracer.reset()
    tracer.on = True
    done_before = len(loop.point)
    loop.run(inputs.ops("main", set(loop.oracle)), seconds=seconds / 2)
    tracer.on = False
    snap = tracer.snapshot()
    result["problems"] += loop.problems[:5] + verify(cluster, loop.oracle)
    result["attempted"] += loop.attempted
    result["failed"] += loop.failed
    agg = snap["agg"]
    counts = phase_ops(agg)
    extras = {
        "trace.overhead_ratio": loop.figures(done_before)["ops_per_s"] / untraced_ops_per_s,
        "trace.residual_ratio": residual_ratio(agg),
    }
    result["timed"] = layer_metrics(agg, counts, snap["durations"], extras)
    result["counting"] = passes
    result["tracer"] = tracer
    result["correct"] = not result["problems"]
    return result
