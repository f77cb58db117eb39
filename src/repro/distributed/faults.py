"""Fault injection for the TH* message fabric.

The distributed analogue of :class:`~repro.storage.faults.FaultyDisk`:
:class:`FaultyTransport` decorates any
:class:`~repro.distributed.transport.Transport` — the in-process
:class:`~repro.distributed.router.InProcessTransport` or the wire
:class:`~repro.serving.client.RemoteTransport` — with a seeded
deterministic :class:`FaultPlan` that injects, per edge kind
(``request`` / ``reply`` / ``forward`` / ``replicate``) and per shard:

* **drops** — the message never arrives; the sender sees
  :class:`~repro.distributed.errors.MessageLostError`. A dropped
  *reply* is the interesting case: the server **did** execute the op,
  so a naïve retry would double-apply — the fault that forces the
  request-id dedup protocol.
* **duplicates** — the request is delivered twice; the second delivery
  must be absorbed by the owner's dedup window.
* **delays** — delivery takes simulated time on the injector's logical
  clock; a round trip whose total elapsed time (request, forward and
  reply delays alike) exceeds the client's per-op ``timeout`` surfaces
  as :class:`~repro.distributed.errors.OpTimeoutError` (with the same
  already-executed ambiguity as a lost reply). The deadline is measured
  against the clock across the *whole* delivery, so a slow forward leg
  counts — the client's ``RetryPolicy.timeout`` is enforced, not
  merely carried.
* **crashes** — the target server crashes (losing its volatile state;
  a durable shard recovers from WAL + checkpoints on restart) and
  refuses connections with
  :class:`~repro.distributed.errors.ServerDownError` until its
  scheduled restart time on the simulated clock.

Time is simulated, even over a real socket: the clock only advances
through injected delays and through clients sleeping out their retry
backoff (:meth:`FaultyTransport.sleep`), which is also what brings
crashed servers back — a client backing off long enough rides out any
finite downtime. Over a wire, injection sits client-side, where a real
deployment's faults are observable: the server cannot tell "request
never sent" from "request lost en route".

Every injected fault is counted in ``dist_faults_total{kind,edge}`` and
(tracing on) emitted as a ``net_fault`` event, so a chaos run can be
reconciled fault by fault.
"""

from __future__ import annotations

import random
from typing import Optional

from ..obs.tracer import TRACER
from .errors import (
    ConfigurationError,
    MessageLostError,
    OpTimeoutError,
    ServerDownError,
)
from .messages import Op, Reply

__all__ = ["FaultPlan", "FaultDecision", "FaultyTransport", "RetryPolicy"]

#: The edge kinds a plan can schedule faults on.
EDGES = ("request", "reply", "forward", "replicate")


class FaultDecision:
    """What the plan decided for one delivery."""

    __slots__ = ("drop", "duplicate", "delay")

    def __init__(self, drop: bool = False, duplicate: bool = False, delay: float = 0.0):
        self.drop = drop
        self.duplicate = duplicate
        self.delay = delay


class RetryPolicy:
    """Client-side resilience knobs: deadline, budget, backoff shape.

    ``backoff(attempt, rng)`` is capped exponential
    (``base_delay * 2**(attempt-1)``, at most ``max_delay``) with
    multiplicative jitter: the full delay scaled by a uniform draw from
    ``[1 - jitter, 1]``, so retries de-synchronise without ever backing
    off *longer* than the cap.
    """

    __slots__ = ("max_retries", "base_delay", "max_delay", "timeout", "jitter")

    def __init__(
        self,
        max_retries: int = 10,
        base_delay: float = 0.005,
        max_delay: float = 0.5,
        timeout: float = 0.25,
        jitter: float = 0.5,
    ):
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if base_delay <= 0 or max_delay < base_delay:
            raise ConfigurationError("need 0 < base_delay <= max_delay")
        if not 0.0 <= jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.timeout = timeout
        self.jitter = jitter

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The sleep before retry number ``attempt`` (1-based)."""
        delay = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return delay * (1.0 - self.jitter * rng.random())


class FaultPlan:
    """A seeded deterministic fault schedule.

    ``drop`` / ``duplicate`` / ``delay`` / ``crash`` are global
    per-delivery probabilities; ``edges`` and ``shards`` optionally
    override any rate for one edge kind or one shard id (shard override
    wins over edge override wins over global). All decisions come from
    one private :class:`random.Random`, so the same plan against the
    same workload injects the same faults.

    Scripted one-shot faults (for targeted tests) are queued with
    :meth:`force` and consumed before any random draw. :meth:`heal`
    stops all injection — decisions become "no fault" without consuming
    randomness — which is how a chaos run lets the cluster converge.
    """

    def __init__(
        self,
        seed: int = 0,
        drop: float = 0.0,
        duplicate: float = 0.0,
        delay: float = 0.0,
        delay_seconds: tuple[float, float] = (0.001, 0.05),
        crash: float = 0.0,
        downtime: tuple[float, float] = (0.05, 0.25),
        edges: Optional[dict[str, dict[str, float]]] = None,
        shards: Optional[dict[int, dict[str, float]]] = None,
    ):
        for name, rate in (("drop", drop), ("duplicate", duplicate),
                           ("delay", delay), ("crash", crash)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} rate must be in [0, 1]")
        if edges is not None and set(edges) - set(EDGES):
            raise ConfigurationError(f"edge overrides must be among {EDGES}")
        self.rng = random.Random(seed)
        self.rates = {"drop": drop, "duplicate": duplicate,
                      "delay": delay, "crash": crash}
        self.delay_seconds = delay_seconds
        self.downtime = downtime
        self.edges = edges if edges is not None else {}
        self.shards = shards if shards is not None else {}
        self.active = True
        self._forced: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    def rate(self, kind: str, edge: str, shard: int) -> float:
        """The effective rate for fault ``kind`` on ``edge`` to ``shard``."""
        by_shard = self.shards.get(shard)
        if by_shard is not None and kind in by_shard:
            return by_shard[kind]
        by_edge = self.edges.get(edge)
        if by_edge is not None and kind in by_edge:
            return by_edge[kind]
        return self.rates[kind]

    def force(self, edge: str, kind: str, count: int = 1) -> None:
        """Queue ``count`` scripted faults on ``edge`` (consumed first).

        ``kind`` is ``"drop"``, ``"duplicate"`` or ``"delay"``.
        """
        if edge not in EDGES:
            raise ConfigurationError(f"edge must be one of {EDGES}")
        if kind not in ("drop", "duplicate", "delay"):
            raise ConfigurationError("forced kind must be drop, duplicate or delay")
        self._forced.setdefault(edge, []).extend([kind] * count)

    def heal(self) -> None:
        """Stop injecting: every later decision is 'no fault'."""
        self.active = False
        self._forced.clear()

    def resume(self) -> None:
        """Resume injection after :meth:`heal`."""
        self.active = True

    # ------------------------------------------------------------------
    def decide(self, edge: str, shard: int) -> FaultDecision:
        """The (deterministic) fate of one delivery on ``edge``."""
        if not self.active:
            return FaultDecision()
        queue = self._forced.get(edge)
        if queue:
            kind = queue.pop(0)
            if kind == "drop":
                return FaultDecision(drop=True)
            if kind == "duplicate":
                return FaultDecision(duplicate=True)
            return FaultDecision(delay=self.delay_seconds[1])
        decision = FaultDecision()
        if self.rng.random() < self.rate("drop", edge, shard):
            decision.drop = True
            return decision  # a dropped message can be nothing else
        if self.rng.random() < self.rate("duplicate", edge, shard):
            decision.duplicate = True
        if self.rng.random() < self.rate("delay", edge, shard):
            lo, hi = self.delay_seconds
            decision.delay = lo + (hi - lo) * self.rng.random()
        return decision

    def decide_crash(self, shard: int) -> Optional[float]:
        """Crash ``shard`` now? Returns a downtime, or ``None``."""
        if not self.active:
            return None
        if self.rng.random() < self.rate("crash", "request", shard):
            lo, hi = self.downtime
            return lo + (hi - lo) * self.rng.random()
        return None


class FaultyTransport:
    """Any transport whose deliveries run under a :class:`FaultPlan`.

    ``inner`` is the fabric that actually carries messages: the
    in-process :class:`~repro.distributed.router.InProcessTransport` or
    the wire :class:`~repro.serving.client.RemoteTransport`. The
    injector owns everything a fault schedule needs once, for both: the
    simulated clock, the restart schedule, the fault accounting and the
    dice sequence of every delivery. The inner fabric supplies two small
    surfaces:

    * **lifecycle** — ``crash(shard)`` / ``restart(shard)`` (each True
      when it changed a server's state), ``restore_all()`` and
      ``tick(now)``, its own failure-detection rule;
    * **delivery legs** — ``check_up(shard, edge)`` raises
      :class:`~repro.distributed.errors.ServerDownError` for a shard
      known to be down, ``deliveries(edge, source, target, op)`` yields
      the raw reply of each delivery of the same ``op`` to ``target``
      (the injector pulls a second one for a duplicate), and
      ``receive(reply)`` brings a reply back.

    Forward and replicate legs are injected whenever the inner fabric
    routes them here, which the in-process one does (its servers hold
    this object as their router); over a wire they run server-side.
    Every other attribute — servers, message counters, the apply audit,
    the control plane — is the inner fabric's.
    """

    def __init__(self, inner, plan: Optional[FaultPlan] = None):
        self.inner = inner
        self.plan = plan if plan is not None else FaultPlan()
        #: The simulated clock (seconds); advances only through injected
        #: delays and client backoff sleeps, never with real latency.
        self.now = 0.0
        self.faults_injected = 0
        self.crash_cycles = 0
        self._restart_at: dict[int, float] = {}
        #: The last refusal counted: one raised by a nested forward or
        #: replicate leg crosses the outer leg too, and counts once.
        self._refused: Optional[ServerDownError] = None

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    # ------------------------------------------------------------------
    # Clock and lifecycle
    # ------------------------------------------------------------------
    def sleep(self, seconds: float) -> None:
        """Advance the simulated clock (client retry backoff)."""
        self.now += seconds
        self._tick()

    def _tick(self) -> None:
        """Restart due servers, then run the inner failure detection."""
        due = [s for s, at in self._restart_at.items() if at <= self.now]
        for shard_id in due:
            del self._restart_at[shard_id]
            # A no-op when the id was rebound to a live promoted server
            # in the meantime: the dead one's schedule must not bounce it.
            self.inner.restart(shard_id)
        self.inner.tick(self.now)

    def crash_server(self, shard_id: int, downtime: Optional[float] = None) -> bool:
        """Crash ``shard_id``; auto-restart after ``downtime`` sim-seconds.

        With ``downtime=None`` the server stays down until someone
        restarts it. Returns False (and schedules nothing) when the
        server was already down.
        """
        if not self.inner.crash(shard_id):
            return False
        self.crash_cycles += 1
        if downtime is not None:
            self._restart_at[shard_id] = self.now + downtime
        return True

    def restore_all(self) -> None:
        """Restart every crashed server immediately (end of a chaos run)."""
        self._restart_at.clear()
        self.inner.restore_all()

    # ------------------------------------------------------------------
    # Fault bookkeeping
    # ------------------------------------------------------------------
    def _fault(self, kind: str, edge: str, shard: int) -> None:
        self.faults_injected += 1
        self.inner.registry.counter(
            "dist_faults_total", {"kind": kind, "edge": edge}
        ).inc()
        if TRACER.enabled:
            TRACER.emit("net_fault", kind=kind, edge=edge, shard=shard)

    def _maybe_crash(self, shard_id: int) -> None:
        downtime = self.plan.decide_crash(shard_id)
        if downtime is not None and self.crash_server(shard_id, downtime):
            self._fault("crash", "request", shard_id)

    # ------------------------------------------------------------------
    # Delivery under faults
    # ------------------------------------------------------------------
    def _send(self, edge: str, source: Optional[int], target: int, op: Op):
        """One leg to ``target`` under the plan; the raw inner reply."""
        try:
            self.inner.check_up(target, edge)
            decision = self.plan.decide(edge, target)
            if decision.drop:
                self._fault("drop", edge, target)
                raise MessageLostError(f"{edge} to shard {target} lost")
            if decision.delay:
                self._fault("delay", edge, target)
                self.now += decision.delay
            copies = self.inner.deliveries(edge, source, target, op)
            reply = next(copies)
            if decision.duplicate:
                # The fabric delivered the same bytes twice; the second
                # execution must be absorbed by the owner's dedup window
                # (on a shipping leg, by the backup's sequence numbers).
                self._fault("duplicate", edge, target)
                reply = next(copies)
        except ServerDownError as exc:
            if exc is not self._refused:
                self._refused = exc
                self._fault("server_down", edge, target)
            raise
        return reply

    def client_send(
        self, shard_id: int, op: Op, timeout: Optional[float] = None
    ) -> Reply:
        self._tick()
        self._maybe_crash(shard_id)
        # The per-op deadline is measured on the clock across the whole
        # delivery: request delay, any forward-leg delays the handler
        # incurs, and the reply delay all count against ``timeout``.
        sent_at = self.now
        reply = self._send("request", None, shard_id, op)
        back = self.plan.decide("reply", shard_id)
        if back.drop:
            # The op executed; the client just never hears about it.
            self._fault("drop", "reply", shard_id)
            raise MessageLostError(f"reply from shard {shard_id} lost")
        if back.delay:
            self._fault("delay", "reply", shard_id)
            self.now += back.delay
        elapsed = self.now - sent_at
        if timeout is not None and elapsed > timeout:
            # The reply exists but arrived after the client gave up.
            self._fault("timeout", "reply", shard_id)
            raise OpTimeoutError(
                f"shard {shard_id} answered in {elapsed:.4f}s > {timeout:.4f}s"
            )
        return self.inner.receive(reply)

    def forward(self, source: int, target: int, op: Op) -> Reply:
        self._tick()
        reply = self.inner.receive(self._send("forward", source, target, op))
        reply.forwards += 1
        return reply

    def replicate(self, source: int, target: int, op: Op) -> Reply:
        """A shipping leg under faults (no tick: runs mid-delivery).

        A dropped ship surfaces as :class:`MessageLostError` for the
        primary's retry/repair ladder; a duplicated ship delivers the
        same bytes twice and the backup's sequence numbers absorb the
        replay — the replication-protocol mirror of the client-edge
        dedup guarantee.
        """
        return self.inner.receive(self._send("replicate", source, target, op))
