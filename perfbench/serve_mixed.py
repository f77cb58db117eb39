"""``serve-mixed``: remote clients of ``trie-hashing serve --uds``.

Setup starts the program's ``serve`` command on a Unix-domain socket as
a subprocess (durable, every parameter its default) and preloads 20k
short uniform keys over the wire; a run sets up three servers and each
takes an equal share of the measured time, three quarters in the open
loop and the rest in the closed loop. The load comes from one asyncio
thread in this process on one connection, pinned to a CPU of its own.
Every block of 20 ops holds 16 ``get`` hits, 3 ``put`` overwrites and 1
``insert`` of a fresh key.

* Phase 1, open loop: a fixed absolute offered rate well below
  saturation. Latency is timed from each op's due time, so a stall also
  charges the ops queued behind it; how late the generator itself ran,
  and the send rate it achieved, are reported (``loadgen.*``), and a
  run where it fell behind carries a warning.
* Phase 2, closed loop: a fixed window of ops in flight, for
  ``ops_per_s``. A closed loop rather than a rate ladder, whose
  "highest rate under the limit" is quantised to its rungs.

The generator routes with a :class:`~repro.core.image.TrieImage`
patched from each reply's IAM and stamps request ids on writes, as
``DistributedFile`` does; the sync ``DistributedFile`` facade would
need a blocked thread per op in flight and cannot make open-loop load
from one thread. In a traced run each op's ``ctx`` carries ``(op id,
0)`` so the server's spans join the op that caused them; untraced ops
send no ``ctx``, as ``DistributedFile`` does with tracing off.

Every layer on a remote op's path works here: frames, the dispatcher
micro-batch, the codec on both sides, ``ShardServer.handle``, group
commit, WAL, checkpoints and shard splits. The trie descent is a small
share, so codec, dispatcher or commit changes show here and a trie
layout change barely does.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import random
import signal
import statistics
import string
import subprocess
import sys
import time
from array import array

from .common import (
    BEST_SHARE, OUT_DIR, ROOT, SRC, Samples, best_window, block_rate, deck_stream, median, p99,
    percentile, ratio,
)

PRELOAD = 20_000
KEY_LENGTH = 8
PRELOAD_WINDOW = 64
OPEN_RATE = 2500
CLOSED_WINDOW = 32
#: Share of the measured time each server spends in the open loop. Its
#: p99 rests on its quarter-second windows, so it gets the larger share;
#: the closed loop's rate needs only a few hundred short blocks.
OPEN_SHARE = 0.75
#: ``ops_per_s`` is the closed loop's rate over runs of this many
#: completions (about 14 ms), ``common.BEST_SHARE`` of the way from the
#: fastest. A shard split stalls the server for 30 ms or more and most
#: of a run's splits land in the closed loop, but a run of completions
#: that short misses them, so the figure does not hang on their count.
RATE_BLOCK = 256
#: ``p50_us`` is the median of a window of this length (250 ops at the
#: offered rate) ``common.BEST_SHARE`` of the way from the lowest.
P50_WINDOW_NS = 100_000_000
#: ``p99_us`` is the mean of the middle half of the p99s of the open
#: loop's windows of this length (each the 7th slowest of ~625 ops). A
#: shard split (30-46 ms; zero to six land in a run's open loop, a count
#: set by the seed) or a one-off 15-35 ms stall lifts a few windows of
#: ~66 into the top quarter and so does not move it, while checkpoints,
#: group commits and young collections, which recur in most windows,
#: do. On twelve seeds over two host states its spread (IQR / median)
#: was 0.14, against 0.21 for the median window p99 and 0.31 for one p99
#: pooled over every quiet window less the split and outlier windows.
#: Split stalls show in ``open_loop_p99_whole_us``, ``open_loop_max_us``
#: and ``write_p99_us`` and the traced ``coordinator.split_ms_max``.
P99_WINDOW_NS = 250_000_000
SETUP_REPEATS = 3
#: Counters that are exact elsewhere but not here: a shard checkpoints
#: when its group commit closes, so where the pipelined preload's
#: micro-batches happened to end shifts every later checkpoint.
INEXACT = ("durable.checkpoints",)
#: Largest share of a sequential op's latency no layer span may cover.
#: What is left is the socket transport and the asyncio scheduling on
#: both sides (reader task, queue, reply flush), which the tracer does
#: not wrap; ``serving.residual_us`` reports it per op.
RESIDUAL_BOUND = 0.6
COUNT_PASS_OPS = 2000
#: The open loop's latencies are valid only while the generator keeps
#: its schedule. A run whose achieved send rate falls more than this
#: share short of ``OPEN_RATE``, or whose p99 lateness passes
#: ``LATE_LIMIT_US``, is flagged with a warning: latency from the due
#: time then includes the generator's own delay.
RATE_SHORTFALL = 0.01
LATE_LIMIT_US = 5000.0
START_TIMEOUT = 60
STOP_TIMEOUT = 60
DECK = ["get"] * 16 + ["put"] * 3 + ["insert"]
PARAMS = {
    "preload": PRELOAD, "key_length": KEY_LENGTH, "preload_window": PRELOAD_WINDOW,
    "mix_per_20": "16 get hit, 3 put overwrite, 1 insert fresh",
    "open_loop_rate_ops_per_s": OPEN_RATE, "closed_loop_window": CLOSED_WINDOW,
    "phases": "on each set-up's server: open loop for open_share, then closed "
              "loop for the rest, of 1/setup_repeats of the seconds",
    "open_share": OPEN_SHARE,
    "server": "python3 -m repro.cli serve --uds PATH (defaults)", "connections": 1,
    "setup_repeats": SETUP_REPEATS, "count_pass_ops": COUNT_PASS_OPS,
}


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
class Server:
    """One ``serve`` process on a socket under ``.perfbench-out``."""

    _serial = 0

    def __init__(self, dump: str = None, cpus: set = frozenset()):
        Server._serial += 1
        os.makedirs(OUT_DIR, exist_ok=True)
        # A path relative to the checkout keeps it under the socket
        # path length limit wherever the checkout lives.
        self.sock = os.path.relpath(
            os.path.join(OUT_DIR, f"s{os.getpid()}-{Server._serial}.sock"), ROOT
        )
        if os.path.exists(os.path.join(ROOT, self.sock)):
            os.unlink(os.path.join(ROOT, self.sock))
        self.dump = dump
        if dump is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", "--uds", self.sock]
        else:
            cmd = [sys.executable, os.path.join("perfbench", "serve_traced.py"), dump,
                   "serve", "--uds", self.sock]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        if cpus:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(self.proc.pid, cpus)
        self.output: list[str] = []
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise RuntimeError(f"server exited before serving: {''.join(self.output)}")
            self.output.append(line)
            if line.startswith("serving on"):
                break
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not start")

    def stop(self) -> str:
        """Graceful SIGTERM shutdown; waits for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
        self.output.append(rest or "")
        path = os.path.join(ROOT, self.sock)
        if os.path.exists(path):
            os.unlink(path)
        return "".join(self.output)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Inputs:
    def __init__(self, seed: int):
        from repro.workloads.generators import KeyGenerator

        self.seed = seed
        self.preload = KeyGenerator(seed).uniform(PRELOAD, length=KEY_LENGTH)
        #: CPUs every server of the run is pinned to (see :func:`_split_cpus`).
        self.server_cpus: set = set()

    def ops(self, salt: str):
        """Endless ``(kind, key, value)`` ops over the preloaded keys and
        the fresh ones the stream itself inserts."""
        rng = random.Random(f"{self.seed}/ops/{salt}")
        letters = string.ascii_lowercase
        known = list(self.preload)
        seen = set(known)
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


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------
class Generator:
    """Routes ops like ``DistributedFile`` and checks every reply."""

    def __init__(self, conn, hello: dict, traced: bool = False):
        from repro.core.alphabet import Alphabet
        from repro.core.image import TrieImage

        self.conn = conn
        self.image = TrieImage(Alphabet(hello["alphabet"]), (), (hello["first_shard"],))
        self.client_id = hello["client_id"]
        self.traced = traced
        self.seq = 0
        self.next_id = 0
        self.oracle: dict[str, str] = {}
        self.inserted: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.direct = 0
        self.problems: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh measured phase."""
        self.done = {"hit": 0, "put": 0, "insert": 0}
        #: Due stamp and latency from the due time of every op that
        #: checked out, its op id, and the latencies of the writes.
        self.point = Samples()
        self.ids = array("q")
        self.write_ns = array("q")
        self.late_ns = array("q")
        #: Ops whose reply showed a split (each waited one out).
        self.learned = 0
        self.direct = 0

    async def call(self, kind: str, key: str, value, due: int) -> None:
        """Send one op; record its latency from ``due`` if it checks out."""
        from repro.distributed.messages import Op

        self.next_id += 1
        op_id = self.next_id
        op = Op(kind, key=key, value=value, ctx=(op_id, 0) if self.traced else None)
        if kind != "get":
            self.seq += 1
            op.rid = (self.client_id, self.seq)
            self.oracle[key] = value
            if kind == "insert":
                self.inserted.append(key)
            expected = None
        else:
            expected = self.oracle[key]
        self.attempted += 1
        try:
            reply = await self.conn.request(self.image.shard_for_key(key), op)
        except Exception as exc:  # a lost or refused op is a failed op
            self.failed += 1
            self.problems.append(f"{kind} {key!r} raised {exc!r}")
            return
        end = time.perf_counter_ns()
        if self.image.patch(reply.iam):
            self.learned += 1
        if reply.error is not None:
            self.failed += 1
            self.problems.append(f"{kind} {key!r} answered {reply.error!r}")
            return
        if reply.value != expected:
            self.problems.append(f"{kind} {key!r} returned {reply.value!r}, not {expected!r}")
            return
        label = "hit" if kind == "get" else kind
        self.done[label] += 1
        if not reply.forwards:
            self.direct += 1
        self.point.add(due, end - due)
        self.ids.append(op_id)
        if label != "hit":
            self.write_ns.append(end - due)

    async def closed(self, stream, window: int, seconds: float = None,
                     count: int = None) -> tuple[int, int]:
        """``window`` ops in flight until time or the op budget runs out.

        Returns the phase's start and its deadline (or end) in ns.
        """
        clock = time.perf_counter_ns
        begin = clock()
        deadline = begin + int(seconds * 1e9) if seconds is not None else None
        budget = [count]

        async def worker():
            while True:
                if deadline is not None and clock() >= deadline:
                    return
                if budget[0] is not None:
                    if budget[0] <= 0:
                        return
                    budget[0] -= 1
                kind, key, value = next(stream)
                await self.call(kind, key, value, clock())

        await asyncio.gather(*(worker() for _ in range(window)))
        return begin, deadline if deadline is not None else clock()

    async def open(self, stream, rate: int, seconds: float) -> tuple[int, int]:
        """Send ``rate * seconds`` ops on a fixed schedule, then wait for
        every reply; returns the first due time and the last send in ns."""
        clock = time.perf_counter_ns
        total = int(rate * seconds)
        interval = 1e9 / rate
        begin = clock() + 2_000_000
        tasks = set()
        for i in range(total):
            due = begin + int(i * interval)
            while True:
                now = clock()
                if now >= due:
                    break
                # Sleep coarsely while far from the due time, then yield
                # to the loop (replies keep flowing) until it arrives.
                wait = due - now
                await asyncio.sleep((wait - 1_500_000) / 1e9 if wait > 2_000_000 else 0)
            self.late_ns.append(now - due)
            kind, key, value = next(stream)
            task = asyncio.ensure_future(self.call(kind, key, value, due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*list(tasks))
        return begin, now

    async def verify(self, records_expected: int) -> list[str]:
        """Every acked write readable; record count and exactly-once hold."""
        problems = []
        stats = await self.conn.control({"cmd": "stats"})
        if stats["records"] != records_expected:
            problems.append(f"server holds {stats['records']} records, expected {records_expected}")
        if stats["duplicate_applies"]:
            problems.append(f"{stats['duplicate_applies']} request ids applied more than once")
        keys = [k for k, v in self.oracle.items() if not v.startswith("v")]
        wrong = 0
        for start in range(0, len(keys), 256):
            chunk = keys[start:start + 256]
            replies = await asyncio.gather(*(self._read(k) for k in chunk))
            wrong += sum(1 for k, got in zip(chunk, replies) if got != self.oracle[k])
        if wrong:
            problems.append(f"{wrong} of {len(keys)} acked writes read back wrong")
        return problems

    async def _read(self, key: str):
        from repro.distributed.messages import Op

        try:
            reply = await self.conn.request(self.image.shard_for_key(key), Op.get(key))
        except Exception as exc:  # reported as a wrong read-back
            return exc
        self.image.patch(reply.iam)
        return reply.error if reply.error is not None else reply.value


async def _connect(server: Server):
    from repro.serving.client import AsyncClient

    conn = await AsyncClient.open_unix(server.sock)
    hello = await conn.control({"cmd": "hello"})
    return conn, Generator(conn, hello, traced=server.dump is not None)


async def _preload(gen: Generator, inputs: Inputs) -> None:
    keys = iter(inputs.preload)

    def stream():
        for key in keys:
            yield "insert", key, "v" + key

    await gen.closed(stream(), PRELOAD_WINDOW, count=PRELOAD)
    gen.inserted = []
    gen.reset()


async def _setup(inputs: Inputs, dump: str = None):
    """Start a server and preload it; returns (server, conn, gen, seconds)."""
    start = time.perf_counter()
    server = Server(dump, inputs.server_cpus)
    try:
        conn, gen = await _connect(server)
        await _preload(gen, inputs)
    except BaseException:
        server.stop()
        raise
    took = time.perf_counter() - start
    # The generator's own inputs and oracle are long-lived; freezing them
    # keeps this process's collector from re-walking them mid-phase.
    gc.collect()
    gc.freeze()
    return server, conn, gen, took


async def _teardown(server: Server, conn) -> str:
    await conn.close()
    return server.stop()


def _rate(stamps, spans: list) -> float:
    return block_rate(stamps, spans, RATE_BLOCK)


def _typical_p99(windows: list) -> float:
    """Mean of the middle half of the windows' p99s."""
    p99s = sorted(p99(window) for window in windows)
    quarter = len(p99s) // 4
    return statistics.fmean(p99s[quarter:len(p99s) - quarter]) if p99s else 0.0


def _achieved_rate(sends: list) -> float:
    """Ops per second of actual send time, over ``(ops sent, first due
    time, last send time)`` of each open-loop phase.

    ``n`` ops on schedule span ``n - 1`` intervals, so a generator that
    kept up gives exactly the offered rate and one that fell behind less.
    """
    intervals = sum(sent - 1 for sent, _, _ in sends)
    return ratio(intervals * 1e9, sum(last - first for _, first, last in sends))


def _loadgen_warnings(late_p99_us: float, achieved: float) -> list[str]:
    warnings = []
    if achieved < OPEN_RATE * (1 - RATE_SHORTFALL):
        warnings.append(f"open-loop generator sent {achieved:.1f} ops/s, "
                        f"short of the offered {OPEN_RATE}")
    if late_p99_us > LATE_LIMIT_US:
        warnings.append(f"open-loop generator p99 lateness {late_p99_us:.0f} us "
                        f"exceeds {LATE_LIMIT_US:.0f} us")
    return warnings


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
async def _untraced(inputs: Inputs, seconds: int) -> dict:
    """Each set-up's server takes an equal share of the measured time.

    Spreading the measured time over every set-up, rather than timing one
    server after discarding the others, lets the run's windows sample the
    host over the whole run.
    """
    setup_times, problems, closed_spans = [], [], []
    open_ops, closed_ops = Samples(), Samples()
    writes, late = array("q"), array("q")
    sends, open_spans = [], []
    attempted = failed = batches = splits = split_stalls = 0
    share = seconds / SETUP_REPEATS
    for index in range(SETUP_REPEATS):
        server, conn, gen, took = await _setup(inputs)
        setup_times.append(took)
        try:
            stream = inputs.ops(f"main{index}")
            before = await conn.control({"cmd": "stats"})
            begin, last_send = await gen.open(stream, OPEN_RATE, share * OPEN_SHARE)
            sends.append((len(gen.late_ns), begin, last_send))
            open_spans.append((begin, last_send + 1))
            open_ops.extend(gen.point)
            split_stalls += gen.learned
            writes.extend(gen.write_ns)
            late.extend(gen.late_ns)
            gen.reset()
            closed_spans.append(
                await gen.closed(stream, CLOSED_WINDOW, seconds=share * (1 - OPEN_SHARE)))
            closed_ops.extend(gen.point)
            after = await conn.control({"cmd": "stats"})
            batches += after["batches"] - before["batches"]
            splits += after["shards"] - before["shards"]
            problems += gen.problems[:5] + await gen.verify(PRELOAD + len(gen.inserted))
            attempted += gen.attempted
            failed += gen.failed
        finally:
            await _teardown(server, conn)
    late_p99_us = percentile(late, 99) / 1e3
    achieved = _achieved_rate(sends)
    p99_windows = open_ops.windows(open_spans, P99_WINDOW_NS)
    p50_windows = open_ops.windows(open_spans, P50_WINDOW_NS)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "warnings": _loadgen_warnings(late_p99_us, achieved),
        "metrics": {
            "setup_s": (median(setup_times), "s"),
            "ops_per_s": (_rate(closed_ops.ends(), closed_spans), "ops/s"),
            "p50_us": (best_window([median(w) for w in p50_windows], BEST_SHARE) / 1e3, "us"),
            "p99_us": (_typical_p99(p99_windows) / 1e3, "us"),
        },
        "report": {
            "write_p99_us": (percentile(writes, 99) / 1e3, "us"),
            "open_loop_p99_whole_us": (percentile(open_ops.latency, 99) / 1e3, "us"),
            "open_loop_max_us": (max(open_ops.latency) / 1e3, "us"),
            "error_ratio": (ratio(failed, attempted), "ratio"),
            "open_loop_ops": (len(open_ops), "count"),
            "p99_windows": (len(p99_windows), "count"),
            "open_loop_split_stalls": (split_stalls, "count"),
            "open_loop_writes": (len(writes), "count"),
            "closed_loop_ops": (len(closed_ops), "count"),
            "loadgen.late_p99_us": (late_p99_us, "us"),
            "loadgen.achieved_ops_per_s": (achieved, "ops/s"),
            "serving.batches": (batches, "count"),
            "shard_splits": (splits, "count"),
            "records_final": (after["records"], "count"),
            "shards_final": (after["shards"], "count"),
            "setup_min_s": (min(setup_times), "s"),
            "setup_max_s": (max(setup_times), "s"),
        },
    }


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def _load_dump(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _durations(later: dict, earlier: dict) -> dict:
    return {name: values[len(earlier["durations"].get(name, [])):]
            for name, values in later["durations"].items()}


class CountPass:
    """A fresh traced server after K sequential ops between two ``stats``."""

    async def run(self, inputs: Inputs, tracer, dump: str) -> "CountPass":
        self.dump = dump
        self.server, self.conn, self.gen, _ = await _setup(inputs, dump)
        try:
            gen = self.gen
            self.first = await self.conn.control({"cmd": "stats"})
            tracer.reset()
            tracer.on = True
            await gen.closed(inputs.ops("count"), 1, count=COUNT_PASS_OPS)
            tracer.on = False
            self.client = tracer.snapshot()
            self.second = await self.conn.control({"cmd": "stats"})
            self.problems = gen.problems[:5] + await gen.verify(PRELOAD + len(gen.inserted))
            self.done = dict(gen.done)
            self.per_op = list(zip(gen.ids, gen.point.latency))
            self.direct = gen.direct
        except BaseException:
            await _teardown(self.server, self.conn)
            raise
        return self

    def metrics(self, server_dump: dict) -> dict:
        """Per-layer metrics of the pass: client spans plus the server's
        aggregates between the two ``stats`` snapshots bracketing it."""
        from .layers import layer_metrics
        from .tracer import diff_agg, merge_agg

        before, after = server_dump["snapshots"][:2]
        n_ops = sum(self.done.values())
        extras = {
            "router.messages_per_op": ratio(self.second["messages"] - self.first["messages"], n_ops),
            "router.forwards_per_op": ratio(self.second["forwards"] - self.first["forwards"], n_ops),
            "client.direct_ratio": ratio(self.direct, n_ops),
            "trie.cells": float(after["structure"]["cells"]),
        }
        agg = merge_agg(self.client["agg"], diff_agg(after["agg"], before["agg"]))
        return layer_metrics(agg, self.done, _durations(after, before), extras)

    def residual_ratio(self, server_dump: dict) -> float:
        """Share of the pass's summed client latency no span covers.

        Client latency against the server's time for the same ops (joined
        by op id) plus the client's own layer self times; what is left is
        the socket transport and the scheduling on both sides.
        """
        op_time = dict(server_dump["op_time"])
        client_self = sum(slot[1] for rows in self.client["agg"].values() for slot in rows.values())
        total = sum(latency for _, latency in self.per_op)
        server = sum(op_time.get(op_id, 0) for op_id, _ in self.per_op)
        return ratio(total - server - client_self, total)


async def _reference_rate(inputs: Inputs, seconds: float) -> tuple:
    """Closed-loop ops/s against an untraced server (the overhead base)."""
    server, conn, gen, _ = await _setup(inputs)
    try:
        begin, end = await gen.closed(inputs.ops("main"), CLOSED_WINDOW, seconds=seconds)
        return (_rate(gen.point.ends(), [(begin, end)]), gen.attempted, gen.failed,
                gen.problems[:5])
    finally:
        await _teardown(server, conn)


async def _timed_phases(count: CountPass, inputs: Inputs, tracer, seconds: float,
                        untraced_ops_per_s: float) -> tuple:
    """Traced open then closed loop on the counting pass's server.

    Returns the timed per-layer metrics and the problems found.
    """
    from .layers import layer_metrics
    from .tracer import diff_agg, merge_agg

    gen, conn = count.gen, count.conn
    try:
        stream = inputs.ops("main")
        gen.reset()
        tracer.reset()
        tracer.on = True
        first_due, last_send = await gen.open(stream, OPEN_RATE, seconds)
        open_ops = list(zip(gen.ids, gen.point.latency))
        late = list(gen.late_ns)
        mid = await conn.control({"cmd": "stats"})
        gen.reset()
        begin, end = await gen.closed(stream, CLOSED_WINDOW, seconds=seconds)
        tracer.on = False
        closed_done = sum(gen.done.values())
        traced_ops_per_s = _rate(gen.point.ends(), [(begin, end)])
        client = tracer.snapshot()
        last = await conn.control({"cmd": "stats"})
        problems = gen.problems[:5] + await gen.verify(PRELOAD + len(gen.inserted))
    finally:
        await _teardown(count.server, conn)
    dump = _load_dump(count.dump)
    # Server snapshots: 0 and 1 bracket the counting pass, 2 is the
    # verify after it, 3 sits between the open and the closed loop and
    # 4 ends the timed phases.
    snaps = dump["snapshots"]
    server = diff_agg(snaps[4]["agg"], snaps[2]["agg"])
    ops = {kind: rows["serving.execute"][0] for kind, rows in server.items()
           if kind in ("hit", "put", "insert") and "serving.execute" in rows}
    op_time = dict(dump["op_time"])
    batches = last["batches"] - mid["batches"]
    extras = {
        "loadgen.late_p99_us": percentile(late, 99) / 1e3,
        "loadgen.achieved_ops_per_s": _achieved_rate([(len(late), first_due, last_send)]),
        "serving.ops_per_batch": ratio(closed_done, batches),
        "serving.grouped_batch_share": ratio(last["grouped_batches"] - mid["grouped_batches"], batches),
        "serving.residual_us": median([lat - op_time.get(i, 0) for i, lat in open_ops]) / 1e3,
        "trace.overhead_ratio": traced_ops_per_s / untraced_ops_per_s,
        "trace.residual_ratio": count.residual_ratio(dump),
    }
    timed = layer_metrics(merge_agg(client["agg"], server), ops, _durations(snaps[4], snaps[2]),
                          extras)
    return timed, count.metrics(dump), problems


async def _traced(inputs: Inputs, seconds: int) -> dict:
    from .tracer import Tracer, install

    untraced_ops_per_s, attempted, failed, problems = await _reference_rate(inputs, seconds / 4)
    tracer = Tracer()
    install(tracer)
    passes = []
    for index in (1, 2):
        dump = os.path.join(OUT_DIR, f"server-spans-serve-mixed-seed{inputs.seed}-pass{index}.json")
        count = await CountPass().run(inputs, tracer, dump)
        problems += count.problems
        if index == 1:
            await _teardown(count.server, count.conn)
            passes.append(count.metrics(_load_dump(dump)))
        else:
            # The second pass's server goes on to the timed phases.
            timed, metrics, timed_problems = await _timed_phases(
                count, inputs, tracer, seconds / 4, untraced_ops_per_s)
            problems += timed_problems
            passes.append(metrics)
        attempted += count.gen.attempted
        failed += count.gen.failed
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "warnings": _loadgen_warnings(timed["loadgen.late_p99_us"],
                                      timed["loadgen.achieved_ops_per_s"]),
        "counting": passes,
        "timed": timed,
        "tracer": tracer,
    }


def _split_cpus() -> set:
    """Pin this process to one CPU; returns the rest, for the server.

    Pinning keeps the two processes from sharing or swapping a core
    between runs, which otherwise moves every latency by a run-wide
    offset.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return set()
        os.sched_setaffinity(0, {cpus[0]})
    except (AttributeError, OSError):  # not Linux, or pinning refused
        return set()
    return set(cpus[1:])


def run(seed: int, seconds: int, trace: bool) -> dict:
    inputs = Inputs(seed)
    inputs.server_cpus = _split_cpus()
    if trace:
        result = asyncio.run(_traced(inputs, seconds))
    else:
        result = asyncio.run(_untraced(inputs, seconds))
    result["params"] = PARAMS
    result["correct"] = not result["problems"] and result["failed"] == 0
    return result
