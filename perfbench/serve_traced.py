"""Run ``trie-hashing serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_traced.py DUMP.json serve --uds PATH

Installs :mod:`perfbench.tracer` over the server's modules, then hands
the remaining arguments to the program's own CLI entry point, so the
server is the unmodified ``serve`` command. On the existing graceful
SIGTERM shutdown the CLI returns and the spans are written to DUMP.

Server spans join the client op that caused them through the op's
``ctx`` field, which the load generator stamps with ``(op id, 0)``.
Each ``stats`` control also snapshots the cumulative per-layer
aggregates and the shard files' structure, so the generator can cut
the server's trace into the same phases as its own.
"""

from __future__ import annotations

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from perfbench.cluster_ingest import structure  # noqa: E402
from perfbench.tracer import Tracer, install  # noqa: E402

#: Server op kinds under the labels the generator uses for them.
KIND = {"get": "hit"}


def main(argv: list) -> int:
    dump, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    tracer.on = True
    from repro import cli
    from repro.serving.server import ServingServer

    clock = time.perf_counter_ns
    op_time: dict = {}
    snapshots: list = []

    def charge(op_id, nanos: int) -> None:
        if op_id is not None:
            op_time[op_id] = op_time.get(op_id, 0) + nanos

    decode = ServingServer.__dict__["_decode_request"].__func__

    def _decode_request(payload):
        start = clock()
        shard_id, op = decode(payload)
        tracer.op = op.ctx[0] if op.ctx else None
        tracer.kind = KIND.get(op.kind, op.kind)
        charge(tracer.op, clock() - start)
        return shard_id, op

    execute = ServingServer._execute

    def _execute(self, shard_id, op, corr_id):
        start = clock()
        try:
            return execute(self, shard_id, op, corr_id)
        finally:
            charge(tracer.op, clock() - start)

    close_group = ServingServer.__dict__["_close_group"].__func__

    def _close_group(stack):
        # The group fsync (and any checkpoint it runs) is charged to the
        # last op of the batch: in a sequential pass, the only one.
        start = clock()
        try:
            return close_group(stack)
        finally:
            charge(tracer.op, clock() - start)

    run_control = ServingServer._run_control

    def _run_control(self, command):
        if isinstance(command, dict) and command.get("cmd") == "stats":
            snap = tracer.snapshot()
            snap["structure"] = structure(self.cluster)
            snapshots.append(snap)
            # Raw spans are kept between the first two snapshots: the
            # generator's first counting pass.
            tracer.sampling = len(snapshots) == 1
        return run_control(self, command)

    ServingServer._decode_request = staticmethod(_decode_request)
    ServingServer._execute = _execute
    ServingServer._close_group = staticmethod(_close_group)
    ServingServer._run_control = _run_control
    code = cli.main(cli_args)
    tracer.dump(dump, extra={
        "snapshots": snapshots,
        "op_time": sorted(op_time.items()),
    })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
