"""Benchmark of the trie-hashing stack: one workload (or all) per call.

    python3 perfbench/run.py --workload local-read --seed 1 --seconds 10 --trace 0

Workloads (see each module's docstring for why it exists):

* ``serve-mixed``    remote clients of ``trie-hashing serve --uds``
* ``local-read``     an embedded reader of a deep ``THFile``
* ``cluster-ingest`` an embedded durable TH* writer on a ``Cluster``

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped. ``--trace 1`` is a separate run that wraps each layer's public
entry points from the benchmark's own files and prints the per-layer
metrics: exact work counters from two fixed-length sequential counting
passes on fresh set-ups (which must agree bit-for-bit), and self times
from a timed phase. Every run checks the program's outputs; a failed
check makes ``correct`` false and is never counted as a slow op.

``ops_per_s`` and ``p50_us`` are taken from short blocks of ops (or,
in ``serve-mixed``'s open loop, short windows) ``common.BEST_SHARE`` of
the way from the best one: the host slows every op for seconds to
minutes at a time, and a figure near the best block tracks the
uncontended machine. ``p99_us`` pools the ops of the quarter of blocks
with the lowest median on the embedded workloads, and is the mean of
the middle half of the quarter-second windows' p99s on ``serve-mixed``. See each workload
module for the block sizes and why. ``setup_s`` is the median of several
set-ups in one run. The share of each CPU the hypervisor gave to other
guests during the run is part of the host record.
Figures only some workloads have (``write_p99_us``, ``scan_p50_us``,
``write_amp``, ``load_factor``, ``error_ratio``) are printed as
``report`` lines: a gated end-to-end metric must exist, and be nonzero,
on every workload.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Everything before it is a
human-readable report; the full result, with the host fingerprint and
the workload parameters, is also written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)

WORKLOADS = ("serve-mixed", "local-read", "cluster-ingest")

#: Per-layer metrics a workload may legitimately not produce because it
#: never runs that layer (reported as 0: no work was done there).
_ABSENT_IS_ZERO = (
    "loadgen.", "serving.", "client.direct_ratio", "router.",
    "range.records_per_scan",
)


def _module(workload: str):
    import importlib

    return importlib.import_module("perfbench." + workload.replace("-", "_"))


def _per_layer(workload: str, seed: int, result: dict) -> dict:
    """Merge counting passes and the timed phase; check exactness."""
    from perfbench.common import EXACT, check_exact_across_runs, declared, source_hash

    first, second = result["counting"]
    timed = result["timed"]
    problems = result["problems"]
    inexact = getattr(_module(workload), "INEXACT", ())
    exact_names = [name for name in EXACT if name not in inexact]
    for name in exact_names:
        if first.get(name) != second.get(name):
            problems.append(
                f"exact counter {name} differs between two passes of one seed: "
                f"{first.get(name)!r} vs {second.get(name)!r}"
            )
    residual = timed["trace.residual_ratio"]
    bound = _module(workload).RESIDUAL_BOUND
    if not -0.01 <= residual <= bound:
        problems.append(
            f"layer self times do not reconcile with traced per-op time: residual "
            f"{residual:.3f} outside [-0.01, {bound}]"
        )
    exact = {name: first.get(name, 0.0) for name in exact_names}
    mismatch = check_exact_across_runs(workload, seed, exact, source_hash())
    if mismatch:
        problems.append(mismatch)
    metrics = {}
    for entry in declared("per_layer"):
        name = entry["name"]
        source = first if name in exact_names else timed
        if name not in source:
            if not name.startswith(_ABSENT_IS_ZERO):
                raise KeyError(f"{workload} did not measure per-layer metric {name}")
            value = 0.0
        else:
            value = source[name]
        metrics[name] = (float(value), entry["unit"])
    return metrics


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    from perfbench.common import OUT_DIR, cpu_steal, emit, provenance, steal_shares

    module = _module(workload)
    steal_before = cpu_steal()
    result = module.run(seed, seconds, bool(trace))
    steal = steal_shares(steal_before, cpu_steal())
    if trace:
        result["metrics"] = _per_layer(workload, seed, result)
        result["report"] = {}
        tracer = result.pop("tracer", None)
        if tracer is not None:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json"))
    result["correct"] = result["correct"] and not result["problems"]
    result["provenance"] = provenance(workload, seed, seconds, trace, result["params"], steal)
    emit(result, trace)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(_ROOT, "src", "repro", "__init__.py")):
        print("error: no program to measure: src/repro is missing from this checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]
    # A failed output check is reported as ``"correct": false`` in the
    # result line; the exit code stays 0 because a result was produced.
    if args.workload != "all":
        run_one(args.workload, args.seed, args.seconds, args.trace)
        return 0
    results = [run_one(w, args.seed, args.seconds, args.trace) for w in WORKLOADS]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{w}.{name}": {"value": value, "unit": unit}
            for w, r in zip(WORKLOADS, results)
            for name, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
