"""Shared pieces of the benchmark: statistics, provenance, metric tables.

The metric names printed here are the ones ``BENCHMARK.json`` lists;
:func:`emit` refuses to print a result whose metric set differs from
the file, so the two cannot drift apart.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from array import array
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Every file a run writes lives under here (inside the checkout).
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: The per-layer metrics that are a pure function of (workload, seed):
#: they come from a fixed-length sequential counting pass and must
#: repeat bit-for-bit. Names, units and directions of every metric are
#: in ``BENCHMARK.json``; how each is figured, in ``layers.py`` and the
#: workload modules.
EXACT = (
    "codec.calls_per_op", "codec.bytes_per_op", "router.messages_per_op",
    "router.forwards_per_op", "obs.registry_calls_per_op",
    "check.audit_calls_per_op", "coordinator.shard_splits",
    "durable.checkpoints", "wal.appends_per_write", "wal.bytes_per_write",
    "file.splits_per_insert", "trie.cells", "disk.reads_per_hit",
    "disk.reads_per_miss", "disk.writes_per_insert",
    "range.leaves_walked_per_scan", "range.records_per_scan",
    "range.bucket_reads_per_scan", "client.direct_ratio", "image.iam_boundaries",
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[rank - 1])


def p99(values: list) -> float:
    return percentile(values, 99)


def median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the workload never did ``den``."""
    return num / den if den else 0.0


def deck_stream(rng, deck: list):
    """Endless op kinds: each block is a fresh shuffle of ``deck``.

    Fixing the mix per block (rather than drawing each op independently)
    keeps the share of expensive ops, such as scans, the same in every
    run, so run-to-run spread measures the program rather than the dice.
    """
    while True:
        block = list(deck)
        rng.shuffle(block)
        yield from block


#: How far from the best block or window the rates and medians are
#: taken. On a shared virtual machine the host slows every op for
#: seconds to minutes at a time, mostly without the kernel's steal
#: counter showing it (a fixed CPU loop ran 16-26 ms in five-second
#: stretches of one minute), so a figure over the whole run, or its
#: median block, follows the share of the run the host was slow. A block
#: a fiftieth of the way from the best tracks the uncontended machine
#: as long as that much of the run was quiet, and a slower program is
#: slower in every block. Blocks are short (15-100 ms) so that quiet
#: stretches hold many of them.
BEST_SHARE = 0.02


def best_window(figures: list, share: float) -> float:
    """The block or window figure ``share`` of the way from the lowest
    (the best: every figure passed is a time or a latency)."""
    if not figures:
        return 0.0
    ordered = sorted(figures)
    return float(ordered[round(share * (len(ordered) - 1))])


class Samples:
    """Per-op start stamps and latencies in flat integer arrays.

    Flat arrays rather than a tuple per op: the benchmark's bookkeeping
    must not feed the garbage collector objects whose collection would
    then be charged to the program under test.
    """

    def __init__(self) -> None:
        self.start = array("q")
        self.latency = array("q")

    def add(self, start: int, latency: int) -> None:
        self.start.append(start)
        self.latency.append(latency)

    def __len__(self) -> int:
        return len(self.latency)

    def extend(self, other: "Samples") -> None:
        self.start.extend(other.start)
        self.latency.extend(other.latency)

    def ends(self) -> list:
        return [s + v for s, v in zip(self.start, self.latency)]

    def windows(self, spans: list, window_ns: int) -> list:
        """Latencies of the ops started in each whole ``window_ns`` window
        of the measured ``(begin, end)`` spans; each span is cut from its
        begin and its ragged end is left out."""
        groups: dict[int, list] = {}
        for stamp, value in zip(self.start, self.latency):
            for begin, end in spans:
                if begin <= stamp < end:
                    window = (stamp - begin) // window_ns
                    if window < (end - begin) // window_ns:
                        groups.setdefault(begin + window * window_ns, []).append(value)
                    break
        return list(groups.values())


def blocks(start, latency, size: int) -> list:
    """Runs of ``size`` consecutive ops as ``(wall ns, latencies)``, from
    the first op's start to the last one's end; the ragged tail is left
    out. ``start`` and ``latency`` are parallel per-op sequences."""
    return [
        (start[i + size - 1] + latency[i + size - 1] - start[i], latency[i:i + size])
        for i in range(0, len(start) - size + 1, size)
    ]


#: The share of blocks, by lowest median, whose ops ``p99_us`` pools on
#: the embedded workloads. One slow op barely moves its block's median,
#: so the tail stays in the pool as often as it happens, while blocks
#: the host slowed as a whole drop out.
QUIET_SHARE = 0.25


def quiet_pool(groups: list, share: float = QUIET_SHARE) -> list:
    """Every latency of the ``share`` of ``groups`` with the lowest median."""
    by_median = sorted(groups, key=median)
    return [value for group in by_median[:max(round(len(by_median) * share), 1)]
            for value in group]


def block_rate(stamps, spans: list, size: int, share: float = BEST_SHARE) -> float:
    """Completions per second over runs of ``size`` consecutive
    completions in each measured ``(begin, end)`` span, ``share`` of the
    way from the fastest run: the time from a run's first completion to
    the next run's first."""
    times = []
    for begin, end in spans:
        inside = sorted(stamp for stamp in stamps if begin <= stamp < end)
        times += [inside[i + size] - inside[i] for i in range(0, len(inside) - size, size)]
    fastest = best_window(times, share)
    return size * 1e9 / fastest if fastest else 0.0


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_steal() -> dict:
    """Per-CPU ``(steal, total)`` clock ticks from the kernel; empty where
    the kernel does not report them."""
    try:
        with open("/proc/stat") as fh:
            rows = [line.split() for line in fh if line.startswith("cpu") and line[3] != " "]
    except OSError:
        return {}
    return {row[0]: (int(row[8]), sum(int(x) for x in row[1:9])) for row in rows if len(row) > 8}


def steal_shares(before: dict, after: dict) -> dict:
    """Share of each CPU's time the hypervisor ran other guests on it.

    On a shared virtual machine this is what moves the tail: the host
    takes a CPU away in chunks of 10 ms and more.
    """
    return {cpu: round(ratio(after[cpu][0] - before[cpu][0], after[cpu][1] - before[cpu][1]), 4)
            for cpu in before if cpu in after}


def source_hash() -> str:
    """SHA-256 over every file under ``src/`` (the program measured)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout; see source_sha256)"


def provenance(workload: str, seed: int, seconds: int, trace: int,
               params: dict, steal: dict) -> dict:
    """Host fingerprint, program identity and the workload parameters.

    ``steal`` is :func:`steal_shares` over the run.
    """
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "commit": _commit(),
        "source_sha256": source_hash(),
        "host": {
            "cores": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "steal_share_during_run": steal,
        },
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ----------------------------------------------------------------------
# Exact counters across runs
# ----------------------------------------------------------------------
def check_exact_across_runs(workload: str, seed: int, exact: dict,
                            src_sha: str) -> Optional[str]:
    """Compare ``exact`` with an earlier run of the same seed and program.

    The first run of a (workload, seed, program) records its counters;
    every later one must reproduce them. Returns a mismatch description
    or ``None``.
    """
    folder = os.path.join(OUT_DIR, "exact")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}-seed{seed}-{src_sha[:16]}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        diff = {k: (earlier.get(k), v) for k, v in exact.items() if earlier.get(k) != v}
        if diff:
            return f"exact counters differ from an earlier run of this seed: {diff}"
        return None
    with open(path, "w") as fh:
        json.dump(exact, fh, sort_keys=True)
    return None


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def declared(section: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` entries of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[section]


def emit(result: dict, trace: int) -> None:
    """Print the full report, write it to disk, then the result line.

    ``result`` holds ``correct``, ``attempted``, ``failed``,
    ``metrics`` (name -> (value, unit)), ``report`` (extra name ->
    (value, unit)), ``provenance`` and optionally ``problems`` (failed
    checks) and ``warnings`` (doubts about the measurement itself).
    """
    prov = result["provenance"]
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    for problem in result.get("problems", []):
        print(f"# CHECK FAILED: {problem}")
    for warning in result.get("warnings", []):
        print(f"# WARNING: {warning}")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in result.get("report", {}).items():
        print(f"report {name} = {value:.6g} {unit}")
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared(section)}
    printed = {name: unit for name, (_, unit) in result["metrics"].items()}
    if printed != units:
        raise SystemExit(
            f"metrics {printed} do not match BENCHMARK.json {section} {units}"
        )
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(
        OUT_DIR, f"{prov['workload']}-seed{prov['seed']}-trace{trace}.json"
    )
    with open(out, "w") as fh:
        json.dump(
            {
                **{k: result[k] for k in ("correct", "attempted", "failed")},
                "problems": result.get("problems", []),
                "warnings": result.get("warnings", []),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
                "report": {k: {"value": v, "unit": u} for k, (v, u) in result.get("report", {}).items()},
                "provenance": prov,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
    print(f"# full result written to {os.path.relpath(out, ROOT)}")
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    sys.stdout.flush()
    print(json.dumps(line))
