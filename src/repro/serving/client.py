"""Clients for the asyncio serving tier.

Three layers, innermost first:

* :class:`AsyncClient` — one connection, pure asyncio. Requests are
  **pipelined**: each send is stamped with a correlation id and awaited
  on a future; a single reader task matches response frames back to
  their futures, so any number of requests can be in flight at once.
  Per-op deadlines are real ``asyncio.wait_for`` timeouts surfacing as
  :class:`~repro.distributed.errors.OpTimeoutError` — the retryable
  ambiguity (the server may or may not have executed the op) that
  request-id dedup exists to absorb.
* :class:`LoopRunner` — a dedicated event-loop thread, so synchronous
  code can drive the async client with plain blocking calls.
* :class:`RemoteTransport` + :class:`RemoteCluster` — the synchronous
  :class:`~repro.distributed.transport.Transport` facade. It quacks
  exactly enough like a :class:`~repro.distributed.coordinator.Cluster`
  that an unmodified :class:`~repro.distributed.client.DistributedFile`
  — image routing, IAM patching, retry loop, rid minting and all —
  runs over a real socket. :func:`connect` bundles the stack into one
  context-managed session.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import struct
import threading
import time
from collections.abc import Iterator
from typing import Any, Optional

from ..core.alphabet import Alphabet
from ..distributed.client import DistributedFile
from ..distributed.codec import (
    FRAME_CONTROL,
    FRAME_CONTROL_REPLY,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    decode_reply,
    decode_value,
    encode_op,
    encode_value,
    pack_frame,
)
from ..distributed.errors import (
    MessageLostError,
    OpTimeoutError,
    ProtocolError,
    ServerDownError,
)
from ..distributed.faults import RetryPolicy
from ..distributed.messages import Op, Reply
from ..obs.metrics import MetricsRegistry
from .frames import DEFAULT_MAX_FRAME, read_frame

__all__ = [
    "AsyncClient",
    "LoopRunner",
    "RemoteTransport",
    "RemoteCluster",
    "RemoteSession",
    "connect",
]

_U32 = struct.Struct(">I")

#: Wall-clock backstop for any single roundtrip a sync facade makes.
#: Orders of magnitude above any sane op; it exists so a hung server
#: cannot hang the calling thread forever, not as a tuning knob.
DEFAULT_WALL_TIMEOUT = 30.0


class AsyncClient:
    """One pipelined connection to a :class:`~repro.serving.server.ServingServer`."""

    def __init__(self, reader, writer, max_frame: int = DEFAULT_MAX_FRAME):
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self._pending: dict[int, asyncio.Future] = {}
        self._next_corr = 0
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    # ------------------------------------------------------------------
    @classmethod
    async def open_unix(cls, path: str, **kwargs) -> "AsyncClient":
        reader, writer = await asyncio.open_unix_connection(path)
        return cls(reader, writer, **kwargs)

    @classmethod
    async def open_tcp(cls, host: str, port: int, **kwargs) -> "AsyncClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, **kwargs)

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._fail_pending(MessageLostError("connection closed"))
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                kind, corr_id, payload = await read_frame(
                    self._reader, self._max_frame
                )
                future = self._pending.pop(corr_id, None)
                # A missing future is a reply that outlived its
                # deadline — the op timed out client-side and the late
                # answer is dropped on the floor, like a real network.
                if future is not None and not future.done():
                    future.set_result((kind, payload))
        except asyncio.CancelledError:
            raise
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            self._fail_pending(MessageLostError(f"connection lost: {exc}"))
        except ProtocolError as exc:
            self._fail_pending(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _roundtrip(
        self, kind: int, payload: bytes, timeout: Optional[float]
    ) -> tuple[int, bytes]:
        if self._closed:
            raise MessageLostError("client is closed")
        corr_id = self._next_corr
        self._next_corr += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[corr_id] = future
        try:
            try:
                self._writer.write(pack_frame(kind, corr_id, payload))
                await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                raise MessageLostError(f"send failed: {exc}") from None
            if timeout is None:
                return await future
            try:
                return await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                raise OpTimeoutError(
                    f"no reply within the {timeout:.4f}s deadline"
                ) from None
        finally:
            self._pending.pop(corr_id, None)

    # ------------------------------------------------------------------
    async def request(
        self, shard_id: int, op: Op, timeout: Optional[float] = None
    ) -> Reply:
        """Send one op to ``shard_id``; its decoded :class:`Reply`.

        Raises the decoded typed exception if the server's handler
        raised rather than answering (down shard, unknown shard, wire
        damage); raises :class:`OpTimeoutError` past the deadline.
        """
        payload = _U32.pack(shard_id) + encode_op(op)
        kind, body = await self._roundtrip(FRAME_REQUEST, payload, timeout)
        if kind != FRAME_RESPONSE or not body:
            raise ProtocolError(f"unexpected response frame kind {kind}")
        if body[0] == 0:
            return decode_reply(body[1:])
        raised = decode_value(body[1:])
        if not isinstance(raised, BaseException):
            raise ProtocolError("raised outcome did not decode to an error")
        raise raised

    async def control(
        self, command: dict, timeout: Optional[float] = DEFAULT_WALL_TIMEOUT
    ) -> Any:
        """Run one control command; its decoded result value."""
        kind, body = await self._roundtrip(
            FRAME_CONTROL, encode_value(command), timeout
        )
        if kind != FRAME_CONTROL_REPLY or not body:
            raise ProtocolError(f"unexpected control frame kind {kind}")
        result = decode_value(body[1:])
        if body[0] == 0:
            return result
        if not isinstance(result, BaseException):
            raise ProtocolError("control error did not decode to an error")
        raise result


class LoopRunner:
    """A dedicated asyncio loop on a daemon thread, driven synchronously."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="th-serving-loop", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def call(self, coro: Any, timeout: Optional[float] = None) -> Any:
        """Run ``coro`` on the loop thread; block for its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise OpTimeoutError(
                f"loop call exceeded the {timeout}s wall backstop"
            ) from None

    def stop(self) -> None:
        if self.loop.is_closed():
            return
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        self.loop.close()


class RemoteTransport:
    """The synchronous :class:`Transport` facade over an :class:`AsyncClient`.

    ``now`` is real monotonic time and ``sleep`` really blocks (this is
    a sync method on the caller's thread, not a coroutine): over a real
    wire, retry backoff and latency measurement are wall-clock facts,
    not simulation state.

    Wrapped in a :class:`~repro.distributed.faults.FaultyTransport`, it
    is driven instead through the injector's lifecycle surface, spoken
    as control frames (``crash`` / ``restart`` / ``restore_all`` /
    ``tick``), and its delivery legs. The injector then owns the clock.
    """

    def __init__(
        self,
        runner: LoopRunner,
        conn: AsyncClient,
        registry: Optional[MetricsRegistry] = None,
        wall_timeout: float = DEFAULT_WALL_TIMEOUT,
    ):
        self.runner = runner
        self.conn = conn
        self.registry = registry if registry is not None else MetricsRegistry()
        self.wall_timeout = wall_timeout
        #: Roundtrips completed through this transport (request+reply).
        self.messages = 0
        #: Shards this client crashed that are still down to it.
        self._down: set[int] = set()
        #: Whether the server runs a failure detector (from ``hello``).
        self._detector = False

    @property
    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def note_apply(self, rid: object) -> None:
        """The apply audit lives server-side over a real wire."""

    def duplicate_applies(self) -> int:
        return self.control({"cmd": "duplicate_applies"})

    def control(self, command: dict) -> Any:
        return self.runner.call(
            self.conn.control(command), self.wall_timeout
        )

    def hello(self) -> dict:
        """Introduce this client: alphabet, first shard, client id."""
        answer = self.control({"cmd": "hello"})
        self._detector = answer["replicated"]
        return answer

    def client_send(
        self, shard_id: int, op: Op, timeout: Optional[float] = None
    ) -> Reply:
        # The op deadline rides inside the coroutine (asyncio.wait_for);
        # the runner timeout is only the hung-loop backstop above it.
        wall = self.wall_timeout if timeout is None else timeout + self.wall_timeout
        reply = self.runner.call(
            self.conn.request(shard_id, op, timeout), wall
        )
        self.messages += 2
        return reply

    # ------------------------------------------------------------------
    # Server lifecycle, as control frames
    # ------------------------------------------------------------------
    def crash(self, shard_id: int) -> bool:
        crashed = self.control({"cmd": "crash", "shard": shard_id})
        if crashed:
            self._down.add(shard_id)
        return crashed

    def restart(self, shard_id: int) -> bool:
        self._down.discard(shard_id)
        return self.control({"cmd": "restart", "shard": shard_id})

    def restore_all(self) -> int:
        self._down.clear()
        return self.control({"cmd": "restore_all"})

    def tick(self, now: float) -> None:
        """Hand ``now`` to the server's failure detector, if it has one.

        Only while a shard this client crashed is down: nothing else
        can depose a primary. Ids a promoted backup answers for are no
        longer down to us.
        """
        if self._detector and self._down:
            status = self.control({"cmd": "tick", "now": now})
            self._down.difference_update(status["promoted"])

    # ------------------------------------------------------------------
    # Delivery legs (only the request edge crosses this wire)
    # ------------------------------------------------------------------
    def check_up(self, shard_id: int, edge: str) -> None:
        if shard_id in self._down:
            raise ServerDownError(f"shard {shard_id} is down ({edge} refused)")

    def deliveries(
        self, edge: str, source: Optional[int], target: int, op: Op
    ) -> Iterator[Reply]:
        """One real roundtrip of ``op`` per reply pulled.

        The wall deadline is a hung-server backstop only: the per-op
        deadline is enforced on the injector's simulated clock.
        """
        while True:
            try:
                reply = self.runner.call(
                    self.conn.request(target, op, self.wall_timeout),
                    self.wall_timeout * 2,
                )
            except ConnectionError as exc:
                raise MessageLostError(f"connection failed: {exc}") from None
            self.messages += 1
            yield reply

    def receive(self, reply: Reply) -> Reply:
        self.messages += 1
        return reply


class _RemoteCoordinator:
    """The sliver of coordinator surface a remote client may touch.

    Everything here is metadata (never routed data): the cold-start
    shard and the authoritative record count behind ``len(file)``.
    """

    def __init__(self, transport: RemoteTransport, first_shard: int):
        self._transport = transport
        #: Only the keys are consulted (``min()`` for the cold image).
        self.servers = {first_shard: None}

    def total_records(self) -> int:
        return self._transport.control({"cmd": "total_records"})

    def replica_of(self, shard_id: int) -> Optional[int]:
        """The live read replica for ``shard_id`` (None when unreplicated).

        Asked per scan leg and never cached: a stale answer would route
        a scan at a promoted (now primary) or retired server.
        """
        return self._transport.control(
            {"cmd": "replica_of", "shard": shard_id}
        )


class RemoteCluster:
    """Quacks like a :class:`Cluster` for :class:`DistributedFile`."""

    def __init__(
        self, transport: RemoteTransport, alphabet: Alphabet, first_shard: int
    ):
        self.router = transport
        self.alphabet = alphabet
        self.registry = transport.registry
        self.coordinator = _RemoteCoordinator(transport, first_shard)


class RemoteSession:
    """One connected serving session: loop thread, socket, file facade.

    >>> with connect(path="/tmp/th.sock") as session:
    ...     session.file.insert("key", "value")

    The server's ``hello`` supplies the alphabet, the first shard id
    (the cold image's single region) and a server-minted client id, so
    request ids stay unique across every client of the deployment.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if (path is None) == (host is None):
            raise ValueError("connect with either path= or host=/port=")
        self.runner = LoopRunner()
        try:
            if path is not None:
                self.conn = self.runner.call(
                    AsyncClient.open_unix(path), DEFAULT_WALL_TIMEOUT
                )
            else:
                self.conn = self.runner.call(
                    AsyncClient.open_tcp(host, int(port)), DEFAULT_WALL_TIMEOUT
                )
        except BaseException:  # repro-lint: disable=TH002 -- re-raised: only stops the loop thread a failed connect would otherwise leak
            self.runner.stop()
            raise
        self.transport = RemoteTransport(self.runner, self.conn, registry)
        hello = self.transport.hello()
        self.cluster = RemoteCluster(
            self.transport,
            Alphabet(hello["alphabet"]),
            hello["first_shard"],
        )
        self.file = DistributedFile(
            self.cluster, client_id=hello["client_id"], retry=retry
        )
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.runner.call(self.conn.close(), DEFAULT_WALL_TIMEOUT)
        finally:
            self.runner.stop()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    registry: Optional[MetricsRegistry] = None,
) -> RemoteSession:
    """Open a :class:`RemoteSession` over UDS (``path``) or TCP."""
    return RemoteSession(
        path=path, host=host, port=port, retry=retry, registry=registry
    )
