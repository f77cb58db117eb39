"""``local-read``: one embedded reader of a deep trie-hashing file.

Setup builds a :class:`~repro.THFile` (b=20, every other parameter the
program's default) from 100k long composite keys: six fixed 21-letter
prefixes, each followed by a seeded 7-letter suffix. The shared prefixes
make the A1 descent deep (about eight thousand trie cells).

Load is a single caller in a closed loop, measured on each of the three
set-ups in turn. Every block of 100 ops holds
90 hits (``get`` and ``contains`` alternating), 8 misses and 2 short
``range_items`` scans of 1 to 100 records. The misses diverge inside a
shared prefix and land on nil leaves, the case where the paper (§3.1)
promises an unsuccessful search costs no bucket access.

A block is also the unit the end-to-end figures are timed in. Two scans
are most of a block's time (about 50 of 55 ms), so a half-second window
holds a varying count of them and its rate follows the dice. Every
block holds the same mix, so ``ops_per_s`` is 100 ops over a block's
wall time and ``p50_us`` the median of a block's point ops, each taken
``common.BEST_SHARE`` of the way from the best block. A block is short enough
to land between the host's slow spells, which on a shared machine come
and go over seconds and slow every op of a half-second window alike.
``p99_us`` pools the point ops of the quarter of blocks whose point
median is lowest (``common.quiet_pool``).

No codec, socket or WAL runs here, so serving, codec and storage
changes should leave this workload unchanged, while the trie layout and
the bucket read are nearly all the work. Scans walk the trie's leaves,
so a scan-start change shows in ``scan_p50_us`` and nowhere else.
"""

from __future__ import annotations

import random
import time
from array import array

from .common import (
    BEST_SHARE, Samples, best_window, deck_stream, median, p99, percentile, quiet_pool, ratio,
)

PREFIXES = (
    "customerorderlineitem",
    "customerorderlinenote",
    "customerinvoicelinexx",
    "supplierorderlineitem",
    "supplierinvoicelinexy",
    "warehousestocklevelzz",
)
SUFFIX = 7
N_KEYS = 100_000
BUCKET_CAPACITY = 20
SCAN_MAX = 100
MISS_POOL = 2000
SETUP_REPEATS = 3
#: Largest share of traced per-op time no layer span may cover: the
#: benchmark's own loop and result check around each call.
RESIDUAL_BOUND = 0.05
COUNT_PASS_OPS = 3000
#: One block of the op mix: 45 get + 45 contains hits, 8 misses, 2 scans.
DECK = ["get"] * 45 + ["contains"] * 45 + ["miss_get"] * 4 + ["miss_contains"] * 4 + ["scan"] * 2
PARAMS = {
    "keys": N_KEYS, "bucket_capacity": BUCKET_CAPACITY, "prefixes": list(PREFIXES),
    "suffix_length": SUFFIX, "mix_per_100": "45 get, 45 contains, 8 nil-leaf misses, 2 scans",
    "scan_records": f"1..{SCAN_MAX}", "setup_repeats": SETUP_REPEATS,
    "phases": "each set-up's file is measured for 1/setup_repeats of the seconds",
    "count_pass_ops": COUNT_PASS_OPS, "loop": "closed, 1 caller",
    "timed_unit": f"one block of {len(DECK)} ops, figures {BEST_SHARE} of the way from the best",
}


def _value(key: str) -> str:
    return key[-SUFFIX:]


class Inputs:
    """Keys in insertion order, the sorted oracle and the op streams."""

    def __init__(self, seed: int):
        from repro.workloads.generators import KeyGenerator

        self.seed = seed
        self.keys = KeyGenerator(seed).clustered(
            N_KEYS, prefixes=list(PREFIXES), suffix_length=SUFFIX
        )
        self.sorted_keys = sorted(self.keys)
        self.key_set = set(self.keys)
        self.misses: list[str] = []

    def choose_misses(self, file) -> None:
        """Absent keys whose A1 search ends on a nil leaf.

        Candidates share a prefix up to a random digit and then diverge;
        basic trie hashing leaves nil leaves exactly there. Only the ones
        the trie routes to a nil leaf are kept, so each miss is the §3.1
        case the fidelity check is about.
        """
        from repro.core.cells import NIL

        rng = random.Random(f"{self.seed}/misses")
        letters = "abcdefghijklmnopqrstuvwxyz"
        tries = 0
        while len(self.misses) < MISS_POOL:
            tries += 1
            if tries > 200 * MISS_POOL:
                raise RuntimeError("too few nil-leaf misses in this file")
            prefix = rng.choice(PREFIXES)
            cut = rng.randrange(1, len(prefix))
            key = prefix[:cut] + rng.choice(letters) + "".join(
                rng.choice(letters) for _ in range(SUFFIX)
            )
            if key in self.key_set or file.trie.lookup(key) != NIL:
                continue
            self.misses.append(key)

    def ops(self, salt: str):
        """Endless deterministic op stream: ``(kind, kind label, args)``."""
        rng = random.Random(f"{self.seed}/ops/{salt}")
        for kind in deck_stream(rng, DECK):
            if kind == "scan":
                start = rng.randrange(len(self.sorted_keys))
                length = rng.randint(1, SCAN_MAX)
                yield "scan", "scan", (start, length)
            elif kind.startswith("miss"):
                yield kind, "miss", rng.choice(self.misses)
            else:
                yield kind, "hit", rng.choice(self.keys)


def build(inputs: Inputs):
    from repro import THFile

    file = THFile(bucket_capacity=BUCKET_CAPACITY)
    for key in inputs.keys:
        file.insert(key, _value(key))
    return file


class Loop:
    """Runs ops against a file, checking every result against the oracle."""

    def __init__(self, file, inputs: Inputs, tracer=None):
        from repro.core.errors import KeyNotFoundError

        self.file = file
        self.inputs = inputs
        self.tracer = tracer
        self.missing = KeyNotFoundError
        #: ``(start ns, latency ns)`` of point ops; scan latencies in ns;
        #: the completion stamp of every op that checked out.
        self.point = Samples()
        self.scan_ns = array("q")
        self.stamps = array("q")
        #: Wall time and point-op latencies of every whole block that
        #: checked out, and the stream position of the next op.
        self.block_ns = array("q")
        self.block_points: list[array] = []
        self.pulled = 0
        self.ops = {"hit": 0, "miss": 0, "scan": 0}
        self.records = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _one(self, kind: str, arg) -> bool:
        file = self.file
        if kind == "get":
            return file.get(arg) == _value(arg)
        if kind == "contains":
            return file.contains(arg) is True
        if kind == "miss_contains":
            return file.contains(arg) is False
        if kind == "miss_get":
            try:
                file.get(arg)
            except self.missing:
                return True
            return False
        start, length = arg
        wanted = self.inputs.sorted_keys[start:start + length]
        got = list(file.range_items(wanted[0], wanted[-1]))
        self.records += len(got)
        return got == [(k, _value(k)) for k in wanted]

    def run(self, stream, seconds: float = None, count: int = None) -> tuple[int, int]:
        """Closed loop for ``seconds`` or ``count`` ops.

        Returns the phase's start and its deadline (or end) in ns. A
        block is timed only when all of it ran in this phase and every
        op of it checked out.
        """
        tracer = self.tracer
        clock = time.perf_counter_ns
        size = len(DECK)
        begin = clock()
        deadline = begin + int(seconds * 1e9) if seconds is not None else None
        done = 0
        block_start = None
        block_points = array("q")
        for kind, label, arg in stream:
            position = self.pulled % size
            self.pulled += 1
            if count is not None and done >= count:
                break
            now = clock()
            if deadline is not None and now >= deadline:
                break
            self.attempted += 1
            if tracer is not None:
                tracer.kind = label
                frame = tracer.enter()
            t0 = clock()
            try:
                ok = self._one(kind, arg)
            except Exception as exc:  # an op that raised is a failed op
                ok = None
                self.failed += 1
                self.problems.append(f"{kind} {arg!r} raised {exc!r}")
            t1 = clock()
            if tracer is not None:
                tracer.exit(frame, "bench.op")
            done += 1
            if position == 0:
                block_start, block_points = t0, array("q")
            if not ok:
                block_start = None
                if ok is not None:
                    self.problems.append(f"{kind} {arg!r} returned a wrong result")
                continue
            self.ops[label] += 1
            self.stamps.append(t1)
            if label == "scan":
                self.scan_ns.append(t1 - t0)
            else:
                self.point.add(t0, t1 - t0)
                block_points.append(t1 - t0)
            if position == size - 1 and block_start is not None:
                self.block_ns.append(t1 - block_start)
                self.block_points.append(block_points)
        return begin, deadline if deadline is not None else clock()

    def ops_per_s(self) -> float:
        """Ops per second of a block ``BEST_SHARE`` of the way from the fastest."""
        fastest = best_window(self.block_ns, BEST_SHARE)
        return len(DECK) * 1e9 / fastest if fastest else 0.0

    def p50_us(self) -> float:
        """A block's point-op median ``BEST_SHARE`` of the way from the lowest."""
        return best_window([median(points) for points in self.block_points], BEST_SHARE) / 1e3


def fidelity_check(file, inputs: Inputs) -> list[str]:
    """§3.1: a hit reads exactly one bucket, a nil-leaf miss reads none."""
    problems = []
    stats = file.store.stats
    rng = random.Random(f"{inputs.seed}/fidelity")
    for key in rng.sample(inputs.keys, 300):
        before = stats.reads
        file.get(key)
        if stats.reads - before != 1:
            problems.append(f"hit {key!r} read {stats.reads - before} buckets, not 1")
    for key in rng.sample(inputs.misses, 300):
        before = stats.reads
        file.contains(key)
        if stats.reads - before != 0:
            problems.append(f"nil-leaf miss {key!r} read {stats.reads - before} buckets, not 0")
    return problems[:5]


def structure(file) -> dict:
    return {
        "records": len(file),
        "buckets": file.bucket_count(),
        "cells": file.trie_size(),
        "load_factor": file.load_factor(),
    }


def measure(inputs: Inputs, seconds: float, setups: int):
    """Build the file ``setups`` times, measuring a share of ``seconds`` on each.

    Spreading the measured time over every set-up, rather than timing one
    file after discarding the others, lets the run's windows sample the
    host over the whole run. Returns the loop, the last file, the build
    times and the measured ``(begin, end)`` spans.
    """
    loop = file = None
    stream = inputs.ops("main")
    setup_times, spans = [], []
    for _ in range(setups):
        file = None  # let the previous file go before timing the next
        start = time.perf_counter()
        file = build(inputs)
        setup_times.append(time.perf_counter() - start)
        if loop is None:
            inputs.choose_misses(file)
            loop = Loop(file, inputs)
        loop.file = file
        spans.append(loop.run(stream, seconds=seconds / setups))
    return loop, file, setup_times, spans


def run(seed: int, seconds: int, trace: bool) -> dict:
    inputs = Inputs(seed)
    setups = SETUP_REPEATS if not trace else 1
    loop, file, setup_times, spans = measure(inputs, seconds if not trace else seconds / 2, setups)
    problems = loop.problems[:5] + fidelity_check(file, inputs)
    if len(file) != N_KEYS:
        problems.append(f"file holds {len(file)} records, expected {N_KEYS}")
    ops_per_s = loop.ops_per_s()
    result = {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": problems,
        "params": PARAMS,
    }
    if not trace:
        points = loop.point
        shape = structure(file)
        pool = quiet_pool(loop.block_points)
        result["metrics"] = {
            "setup_s": (median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "p50_us": (loop.p50_us(), "us"),
            "p99_us": (p99(pool) / 1e3, "us"),
        }
        result["report"] = {
            "scan_p50_us": (median(loop.scan_ns) / 1e3, "us"),
            "error_ratio": (ratio(loop.failed, loop.attempted), "ratio"),
            "load_factor": (shape["load_factor"], "ratio"),
            "point_p99_whole_us": (percentile(points.latency, 99) / 1e3, "us"),
            "point_ops": (len(points), "count"),
            "blocks_timed": (len(loop.block_ns), "count"),
            "whole_ops_per_s": (ratio(len(loop.stamps) * 1e9, sum(e - b for b, e in spans)), "ops/s"),
            "p99_pool_ops": (len(pool), "count"),
            "scans": (len(loop.scan_ns), "count"),
            "trie_cells": (shape["cells"], "count"),
            "buckets": (shape["buckets"], "count"),
            "setup_min_s": (min(setup_times), "s"),
            "setup_max_s": (max(setup_times), "s"),
        }
        result["correct"] = not problems and loop.failed == 0
        return result
    file = loop = None  # the traced passes build their own files
    return _traced(inputs, ops_per_s, seconds, result)


def _traced(inputs: Inputs, untraced_ops_per_s: float, seconds: int, result: dict) -> dict:
    from .layers import layer_metrics, residual_ratio
    from .tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    passes = []
    for _ in range(2):
        file = None
        file = build(inputs)
        tracer.reset()
        tracer.on = True
        tracer.sampling = not passes
        loop = Loop(file, inputs, tracer)
        loop.run(inputs.ops("count"), count=COUNT_PASS_OPS)
        tracer.on = False
        tracer.sampling = False
        snap = tracer.snapshot()
        extras = {
            "trie.cells": float(file.trie_size()),
            "range.records_per_scan": ratio(loop.records, loop.ops["scan"]),
        }
        passes.append(layer_metrics(snap["agg"], loop.ops, snap["durations"], extras))
        result["problems"] += loop.problems[:5]
        result["attempted"] += loop.attempted
        result["failed"] += loop.failed
    tracer.reset()
    tracer.on = True
    loop = Loop(file, inputs, tracer)
    loop.run(inputs.ops("main"), seconds=seconds / 2)
    tracer.on = False
    snap = tracer.snapshot()
    result["problems"] += loop.problems[:5]
    result["attempted"] += loop.attempted
    result["failed"] += loop.failed
    traced_ops_per_s = loop.ops_per_s()
    extras = {
        "trace.overhead_ratio": traced_ops_per_s / untraced_ops_per_s,
        "trace.residual_ratio": residual_ratio(snap["agg"]),
    }
    timed = layer_metrics(snap["agg"], loop.ops, snap["durations"], extras)
    result["counting"] = passes
    result["timed"] = timed
    result["tracer"] = tracer
    result["correct"] = not result["problems"]
    return result
