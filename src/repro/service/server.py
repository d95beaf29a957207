"""The verification server behind ``repro-spi serve``.

A long-running process that accepts framed JSON verification requests
(see :mod:`repro.service.protocol`) on a Unix socket and/or a TCP
listener and runs them on the same
:class:`~repro.runtime.supervisor.JobEngine` the batch runner uses, so
retries, degradation, journal records and verdict-store traffic follow
one failure policy (the table in ``docs/runtime.md``, "Failure
policy").  One event loop, no per-connection threads: client sockets
are non-blocking, and a single wait covers worker pipes and the socket
selector together, so a finished verdict is answered at once.

What the server adds around the engine is the service front end:

* **admission control** — a bounded queue
  (:class:`~repro.service.admission.AdmissionQueue`); when it is full
  new requests get a fast ``overloaded`` response instead of an
  unbounded backlog;
* **per-request deadlines** — a queued request whose budget expires is
  answered ``expired`` without wasting a worker; a dispatched one gets
  the remaining budget as its cooperative deadline plus a scaled
  hard-kill backstop;
* **circuit breakers** — repeated worker crashes on one protocol open
  that protocol's breaker (:mod:`repro.service.breaker`); requests for
  it are answered immediately with a degraded
  ``Exhaustion(reason="fault")`` verdict while other protocols keep
  verifying normally;
* **supervised workers** — crashed/hung/OOM-killed workers are replaced
  by the pool with no lifetime spawn cap (a service replaces workers
  forever; the breaker, not a spawn budget, is what stops crash loops);
* **dedupe** (``--dedupe``) — request ids are idempotency keys;
* **graceful drain** — on SIGTERM/SIGINT (or
  :meth:`Server.request_drain`): listeners close, queued requests are
  shed with ``draining`` responses, a failed in-flight attempt degrades
  at once instead of retrying, in-flight jobs get ``drain_grace``
  seconds to finish (then are killed and answered ``degraded``), the
  journal is flushed, and :meth:`Server.serve_forever` returns ``0``.

Every verdict, shed, and degrade is journaled (when a journal is
configured) in the suite-journal schema, so a batch run can finish what
the service could not::

    repro-spi suite --suite-file jobs.json --journal service.jsonl \\
        --resume [--retry-faults]

— shed requests (``type: "shed"``) and terminal job errors (``type:
"error"``) are invisible to resume filtering and simply re-run;
degraded fault verdicts (``status: "fault"``) re-run under
``--retry-faults``.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import ReproError
from repro.obs.metrics import Metrics, current_metrics
from repro.obs.trace import trace_event
from repro.runtime.journal import Journal
from repro.runtime.supervisor import FAULT, OK, JobEngine, Ticket, WorkerPool
from repro.service import protocol
from repro.service.admission import AdmissionQueue
from repro.service.breaker import CLOSED, BreakerBoard
from repro.service.framing import FrameDecoder, FramingError, encode_frame
from repro.service.protocol import ProtocolError, Request, parse_request


class ServiceError(ReproError):
    """The server was misconfigured (no listener, bad limits...)."""


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro-spi serve`` can tune.

    ``job_deadline`` is the *default* per-request budget; a request's
    own ``deadline`` field overrides it.  ``retries`` is deliberately
    lower than the batch default — an interactive client is better
    served by a fast degraded answer than a long retry ladder (and can
    resubmit; the breaker remembers).
    """

    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None
    workers: int = 2
    queue_limit: int = 64
    retries: int = 1
    job_deadline: Optional[float] = None
    max_rss_mb: Optional[float] = None
    journal_path: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: LRU bound on distinct per-protocol breakers (None = unbounded);
    #: only CLOSED, idle breakers are ever evicted.
    breaker_max: Optional[int] = 1024
    #: Replay the existing journal's verdict history into the breaker
    #: board at startup, so a respawned shard does not relearn a crash
    #: loop from scratch (see :meth:`BreakerBoard.rebuild`).
    rebuild_breakers: bool = False
    drain_grace: float = 10.0
    heartbeat_interval: float = 0.25
    heartbeat_grace: float = 15.0
    hang_grace: float = 5.0
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    #: Upper bound, in seconds, on how late timer work runs (retry
    #: backoff, deadline expiry, drain grace); socket and worker
    #: traffic wakes the event loop at once.
    tick: float = 0.05
    #: Accept ``fault_plan`` fields in requests (crash-injection tests
    #: only; a production server refuses them).
    allow_fault_injection: bool = False
    #: Treat the request id as an idempotency key (``serve --dedupe``):
    #: a request whose id already has an ``ok`` verdict in this server's
    #: journal is answered from the journal (``cached: true``), and a
    #: request whose id is currently queued or running is *coalesced*
    #: onto the in-flight ticket instead of computed twice.  Cluster
    #: shards run with this on — it is the shard-side backstop that
    #: keeps verdicts exactly-once when a promoted standby re-drives
    #: work the dead primary already delivered here.
    dedupe: bool = False
    #: Directory of a persistent cross-run
    #: :class:`~repro.service.store.VerdictStore` (``serve
    #: --verdict-store``).  Admission checks it cache-aside — a hit
    #: short-circuits before the worker pool with ``cached: true`` and
    #: a ``store.hit`` metric, and is *not* journaled (the verdict was
    #: never computed here; journaling it again would double-journal
    #: warm restarts) — and completions write budget-pure ``ok``
    #: verdicts through.  Degraded fault verdicts are never written:
    #: they are retryable by design.
    verdict_store: Optional[str] = None


@dataclass(eq=False)
class _Client:
    """One connected peer: its socket, read decoder, and write buffer."""

    sock: socket.socket
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    outbuf: bytearray = field(default_factory=bytearray)
    closed: bool = False


@dataclass(eq=False)
class _Ticket(Ticket):
    """An admitted request: the engine's ticket plus who gets the answer.

    ``probe`` marks the single request allowed through a half-open
    breaker; ``extra_clients`` are duplicate submitters coalesced onto
    this ticket (``--dedupe``), who receive the same final answer.
    """

    client: Optional[_Client] = None
    admitted_at: float = 0.0
    probe: bool = False
    extra_clients: list = field(default_factory=list)


class Server:
    """See the module docstring; constructed from a :class:`ServerConfig`,
    driven by :meth:`serve_forever`."""

    def __init__(self, config: ServerConfig) -> None:
        if config.socket_path is None and config.port is None:
            raise ServiceError("serve needs a unix socket path and/or a TCP port")
        if config.workers < 1:
            raise ServiceError("need at least one worker")
        self.config = config
        self.queue: AdmissionQueue[_Ticket] = AdmissionQueue(config.queue_limit)
        self.breakers = BreakerBoard(
            threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
            max_size=config.breaker_max,
        )
        if config.rebuild_breakers and config.journal_path is not None:
            from repro.runtime.journal import read_journal

            try:
                self.breakers.rebuild(read_journal(config.journal_path))
            except ReproError:
                pass  # a damaged journal must not block the restart
        self.metrics = Metrics()
        self.pool = WorkerPool(
            config.workers,
            heartbeat_interval=config.heartbeat_interval,
            heartbeat_grace=config.heartbeat_grace,
            max_rss_mb=config.max_rss_mb,
            max_spawns=None,  # services replace workers forever
            name="repro-serve-worker",
        )
        journal = (
            Journal(config.journal_path, fresh=False)
            if config.journal_path is not None
            else None
        )
        if config.dedupe and config.journal_path is not None:
            from repro.runtime.journal import JournalIndex

            self._journal_index: Optional[JournalIndex] = JournalIndex(
                config.journal_path
            )
        else:
            self._journal_index = None
        store = None
        if config.verdict_store is not None:
            from repro.service.store import VerdictStore

            store = VerdictStore(config.verdict_store)
        self.engine = JobEngine(
            self.pool, self.queue, self._on_verdict,
            retries=config.retries,
            backoff_base=config.backoff_base,
            backoff_cap=config.backoff_cap,
            metrics=self.metrics,
            hang_grace=config.hang_grace,
            checkpoint_dir=config.checkpoint_dir,
            journal=journal,
            store=store,
            on_failure=self._on_failure,
            admit=self._admit,
            trace_prefix="service",
        )
        #: request id -> live ticket, for coalescing duplicates.
        self._inflight_ids: dict[str, _Ticket] = {}
        self._selector = selectors.DefaultSelector()
        self._listeners: list[socket.socket] = []
        self._clients: set[_Client] = set()
        self._drain = threading.Event()
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._started_at = time.monotonic()
        self._bound = False
        #: Where the TCP listener actually landed (port 0 = ephemeral).
        self.tcp_address: Optional[tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------

    def bind(self) -> None:
        """Create and register the listeners (idempotent)."""
        if self._bound:
            return
        cfg = self.config
        if cfg.socket_path is not None:
            if os.path.exists(cfg.socket_path):
                # A stale socket file from a dead server blocks bind();
                # a live server would still hold it open, but two
                # servers on one path is operator error either way.
                os.unlink(cfg.socket_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(cfg.socket_path)
            self._add_listener(listener)
        if cfg.port is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((cfg.host or "127.0.0.1", cfg.port))
            self.tcp_address = listener.getsockname()[:2]
            self._add_listener(listener)
        self._bound = True

    def _add_listener(self, listener: socket.socket) -> None:
        listener.listen(64)
        listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, ("listener", None))
        self._listeners.append(listener)

    def request_drain(self) -> None:
        """Ask the serve loop to drain (thread- and signal-safe)."""
        self._drain.set()

    @property
    def draining(self) -> bool:
        return self._draining or self._drain.is_set()

    def serve_forever(self) -> int:
        """Run until drained; returns the process exit status (``0``)."""
        self.bind()
        wake = [self._selector.fileno()]
        try:
            while True:
                if self._drain.is_set() and not self._draining:
                    self._begin_drain()
                self.engine.step(self.config.tick, wake)
                self._pump_sockets()
                now = time.monotonic()
                self._expire_queued(now)
                if not self._draining:
                    self.pool.ensure()
                    self.engine.dispatch_ready(now)
                elif self._drain_finished(now):
                    break
                self.metrics.set_gauge("service.queue_depth", self.queue.depth)
                self.metrics.set_gauge("service.inflight", len(self.pool.busy()))
        finally:
            self._shutdown()
        return 0

    # -- socket plumbing -----------------------------------------------

    def _pump_sockets(self) -> None:
        for key, mask in self._selector.select(0):
            role, payload = key.data
            if role == "listener":
                self._accept(key.fileobj)
            else:
                client = payload
                if mask & selectors.EVENT_READ:
                    self._read(client)
                if mask & selectors.EVENT_WRITE and not client.closed:
                    self._flush(client)

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, _ = listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        client = _Client(sock)
        self._clients.add(client)
        self._selector.register(sock, selectors.EVENT_READ, ("client", client))
        self.metrics.inc("service.connections")

    def _read(self, client: _Client) -> None:
        try:
            data = client.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(client)
            return
        if not data:
            self._close(client)
            return
        try:
            frames = client.decoder.feed(data)
        except FramingError as err:
            self._respond(client, protocol.response(None, protocol.ERROR, error=str(err)))
            self._close(client, after_flush=True)
            return
        for frame in frames:
            self._handle_frame(client, frame)

    def _respond(self, client: Optional[_Client], message: dict) -> None:
        """Queue (and opportunistically send) one response frame.

        A vanished client is not an error: its job still completes and
        its verdict is still journaled — the resume path is the client's
        second chance.
        """
        if client is None or client.closed:
            return
        try:
            client.outbuf.extend(encode_frame(message))
        except FramingError:
            client.outbuf.extend(
                encode_frame(
                    protocol.response(
                        message.get("id"), protocol.ERROR, error="response too large"
                    )
                )
            )
        self._flush(client)

    def _flush(self, client: _Client) -> None:
        while client.outbuf:
            try:
                sent = client.sock.send(client.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close(client)
                return
            del client.outbuf[:sent]
        self._set_write_interest(client, bool(client.outbuf))

    def _set_write_interest(self, client: _Client, wanted: bool) -> None:
        if client.closed:
            return
        mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if wanted else 0)
        try:
            self._selector.modify(client.sock, mask, ("client", client))
        except (KeyError, ValueError, OSError):
            pass

    def _close(self, client: _Client, after_flush: bool = False) -> None:
        if client.closed:
            return
        if after_flush and client.outbuf:
            # Best effort: push what we can before hanging up.
            try:
                client.sock.setblocking(True)
                client.sock.settimeout(1.0)
                client.sock.sendall(bytes(client.outbuf))
            except OSError:
                pass
        client.closed = True
        self._clients.discard(client)
        try:
            self._selector.unregister(client.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            client.sock.close()
        except OSError:
            pass

    # -- request handling ----------------------------------------------

    def _handle_frame(self, client: _Client, frame: dict) -> None:
        self.metrics.inc("service.requests")
        try:
            request = parse_request(frame)
        except ProtocolError as err:
            self.metrics.inc("service.errors")
            rid = frame.get("id") if isinstance(frame, dict) else None
            self._respond(client, protocol.response(rid, protocol.ERROR, error=str(err)))
            return
        if request.kind in protocol.CONTROL_KINDS:
            self._handle_control(client, request)
            return
        if request.fault_plan is not None and not self.config.allow_fault_injection:
            self.metrics.inc("service.errors")
            self._respond(
                client,
                protocol.response(
                    request.id,
                    protocol.ERROR,
                    error="fault injection is disabled on this server",
                ),
            )
            return
        if self._draining:
            self._respond(
                client,
                protocol.response(
                    request.id, protocol.DRAINING, error="server is draining"
                ),
            )
            return
        if self.config.dedupe:
            if self._serve_cached(client, request):
                return
            existing = self._inflight_ids.get(request.id)
            if existing is not None and existing.job.kind == request.kind:
                # Same idempotency key, already queued or running: both
                # submitters get the one verdict.  This is what makes a
                # re-driven request from a second router a no-op instead
                # of a duplicate computation.
                existing.extra_clients.append(client)
                self.metrics.inc("service.coalesced")
                trace_event("service.coalesce", job=request.id)
                return
        now = time.monotonic()
        key = protocol.protocol_key(request.target)
        ticket = _Ticket(
            request.job(),
            protocol=key,
            fault_plan=request.fault_plan,
            fault_attempts=request.fault_attempts,
            client=client,
            admitted_at=now,
        )
        cached = self.engine.lookup(ticket)
        if cached is not None:
            # Not journaled: the verdict was computed by an earlier
            # process incarnation, and journaling it again would make a
            # warm restart double-journal.
            trace_event("service.store_hit", job=request.id)
            self._respond(
                client,
                protocol.response(request.id, protocol.OK, result=cached, cached=True),
            )
            return
        breaker = self.breakers.get(key)
        if not breaker.allow():
            ticket.attempt = 0  # degraded without dispatch
            ticket.events.append("degraded without dispatch: circuit open")
            self.engine.degrade(ticket, breaker.last_fault or "circuit open")
            return
        ticket.probe = breaker.state != CLOSED
        budget = request.deadline or self.config.job_deadline
        if budget is not None:
            ticket.deadline_at = now + budget
        if not self.queue.offer(ticket):
            if ticket.probe:
                breaker.abandon_probe()
            self.metrics.inc("service.shed")
            self._journal({
                "type": "shed", "job": request.id, "protocol": key,
                "reason": "overloaded",
            })
            self._respond(
                client,
                protocol.response(
                    request.id,
                    protocol.OVERLOADED,
                    error=f"admission queue full ({self.queue.limit})",
                    retry_after=round(self.config.backoff_base * 4, 3),
                ),
            )
            return
        if self.config.dedupe:
            self._inflight_ids[request.id] = ticket
            # Claim the idempotency key durably *before* any verdict
            # exists.  A router promoted mid-compute sees no result for
            # a re-driven id, but it does see this claim — and pins the
            # retry back to this shard, where the in-flight coalescer
            # above turns it into the one verdict instead of a second
            # computation on a different shard.  Wall-clock (not
            # monotonic) time: claim recency is compared across shard
            # processes.
            self._journal({
                "type": "claim", "job": request.id, "protocol": key,
                "time": time.time(), "pid": os.getpid(),
            })
        trace_event("service.admit", job=request.id, depth=self.queue.depth)

    def _serve_cached(self, client: Optional[_Client], request: Request) -> bool:
        """Answer from this shard's own journal when the id already has
        an ``ok`` verdict.  Only ``ok`` records dedupe here: serving a
        cached *fault* verdict would freeze a transient degradation into
        a permanent answer (and break parity with a fault-free run) —
        those keep their recompute-on-resubmit semantics."""
        if self._journal_index is None:
            return False
        record = self._journal_index.result(request.id)
        if record is None or record.get("status") != "ok":
            return False
        self.metrics.inc("service.deduped")
        trace_event("service.dedupe", job=request.id)
        self._respond(
            client,
            protocol.response(
                request.id, protocol.OK, result=record["result"], cached=True
            ),
        )
        return True

    def _answer(self, ticket: _Ticket, message: dict) -> None:
        """Deliver a ticket's final answer to its client *and* every
        coalesced duplicate, retiring its idempotency-key entry."""
        if self._inflight_ids.get(ticket.job.id) is ticket:
            del self._inflight_ids[ticket.job.id]
        self._respond(ticket.client, message)
        for client in ticket.extra_clients:
            self._respond(client, message)

    def _handle_control(self, client: _Client, request: Request) -> None:
        if request.kind == "ping":
            # The pong doubles as the cluster health probe: liveness
            # plus the load signals a router ejects/weighs shards on.
            self._respond(
                client,
                protocol.response(
                    request.id,
                    protocol.PONG,
                    server="repro-spi",
                    pid=os.getpid(),
                    draining=self.draining,
                    queue_depth=self.queue.depth,
                    busy=len(self.pool.busy()),
                    breakers_open=self.breakers.open_count,
                ),
            )
        else:
            self._respond(
                client,
                protocol.response(request.id, protocol.STATUS, **self.status()),
            )

    def status(self) -> dict:
        """The ``status`` payload (also what the CLI writes as an
        artifact)."""
        return {
            "server": {
                "pid": os.getpid(),
                "draining": self.draining,
                "uptime": round(time.monotonic() - self._started_at, 3),
            },
            "pool": {
                "size": self.config.workers,
                "alive": self.pool.alive_count(),
                "busy": len(self.pool.busy()),
                "spawned": self.pool.spawned,
            },
            "queue": self.queue.snapshot(),
            "breakers": self.breakers.snapshot(),
            "metrics": self.metrics.to_json(),
        }

    # -- engine hooks --------------------------------------------------

    def _journal(self, record: dict) -> None:
        if self.engine.journal is not None:
            self.engine.journal.append(record)

    def _on_verdict(self, ticket: _Ticket, status: str, result, error) -> None:
        """The engine settled a ticket: answer every waiting client."""
        rid = ticket.job.id
        if status == OK:
            self.breakers.get(ticket.protocol).record_success()
            self.metrics.inc("service.completed")
            self.metrics.observe(
                "service.latency", time.monotonic() - ticket.admitted_at
            )
            message = protocol.response(rid, protocol.OK, result=result)
        elif status == FAULT:
            self.metrics.inc("service.degraded")
            message = protocol.response(
                rid, protocol.DEGRADED, result=result, error=error
            )
        else:
            self.metrics.inc("service.errors")
            message = protocol.response(rid, protocol.ERROR, error=error)
        self._answer(ticket, message)

    def _on_failure(self, ticket: _Ticket, description: str, crashed: bool) -> None:
        """Breaker bookkeeping for one failed attempt."""
        breaker = self.breakers.get(ticket.protocol)
        if not crashed:
            # The worker survived: the request's fault, not the protocol's.
            breaker.record_success()
            return
        self.metrics.inc("service.crashes")
        breaker.record_fault(f"{ticket.job.id}: {description}")
        ticket.probe = False
        trace_event(
            "service.crash", job=ticket.job.id, detail=description,
            breaker=breaker.state,
        )

    def _admit(self, ticket: _Ticket, now: float) -> bool:
        """Dispatch gate: the breaker may have opened while this ticket
        queued (another request for the same protocol crashed workers)."""
        breaker = self.breakers.get(ticket.protocol)
        if breaker.state == CLOSED or ticket.probe:
            return True
        if breaker.allow():
            ticket.probe = True
            return True
        self.engine.degrade(ticket, breaker.last_fault or "circuit open")
        return False

    def _shed(self, ticket: _Ticket, status: str, reason: str, error: str) -> None:
        """Bounce an already-queued ticket back to its client un-run."""
        if ticket.probe:
            self.breakers.get(ticket.protocol).abandon_probe()
        self.metrics.inc("service.shed")
        self._journal({
            "type": "shed",
            "job": ticket.job.id,
            "protocol": ticket.protocol,
            "reason": reason,
        })
        self._answer(
            ticket,
            protocol.response(ticket.job.id, status, error=error),
        )

    def _expire_queued(self, now: float) -> None:
        # Expiry is its own status, not ``overloaded`` (a retry cannot
        # help: the budget is gone) and not ``degraded`` (nothing ran,
        # there is no verdict stub to qualify).  The journal keeps the
        # same distinction, so a batch resume re-runs expired work.
        for ticket in self.queue.expire(now):
            self._shed(
                ticket,
                protocol.EXPIRED,
                reason="expired",
                error="deadline expired before a worker was free",
            )

    # -- drain & shutdown ----------------------------------------------

    def _begin_drain(self) -> None:
        self._draining = True
        self.engine.draining = True
        self._drain_deadline = time.monotonic() + self.config.drain_grace
        trace_event(
            "service.drain",
            queued=self.queue.depth,
            inflight=len(self.pool.busy()),
        )
        for listener in self._listeners:
            try:
                self._selector.unregister(listener)
            except (KeyError, ValueError, OSError):
                pass
            try:
                listener.close()
            except OSError:
                pass
        self._listeners.clear()
        if self.config.socket_path is not None:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        # Shed everything queued: journaled as "shed" records, which a
        # batch --resume over the same journal re-runs.
        for ticket in self.queue.drain():
            self._shed(
                ticket,
                protocol.DRAINING,
                reason="draining",
                error="server is draining",
            )

    def _drain_finished(self, now: float) -> bool:
        busy = self.pool.busy()
        if not busy:
            return True
        if self._drain_deadline is not None and now > self._drain_deadline:
            for worker in busy:
                self.pool.kill(worker, "drain grace expired")
        return False

    def _shutdown(self) -> None:
        self._draining = True
        self.pool.shutdown()
        if self.engine.journal is not None:
            self.engine.journal.close()
        if self.engine.store is not None:
            self.engine.store.close()
        for client in list(self._clients):
            self._close(client, after_flush=True)
        for listener in self._listeners:
            try:
                listener.close()
            except OSError:
                pass
        self._listeners.clear()
        if self._bound and self.config.socket_path is not None:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        self._selector.close()
        ambient = current_metrics()
        if ambient is not None:
            ambient.absorb(self.metrics)


def serve(config: ServerConfig) -> int:
    """Blocking entry point used by the CLI: bind, install drain-on-
    SIGINT/SIGTERM handlers, serve until drained.  Returns the exit
    status (``0`` after a clean drain)."""
    from repro.runtime.lifecycle import drain_signals

    server = Server(config)
    server.bind()
    with drain_signals(on_signal=lambda signum: server.request_drain()) as drain:
        if drain.is_set():  # signal raced bind
            server.request_drain()

        # Mirror the externally-installed event into the server so a
        # programmatic set (tests) also drains.
        def _watch_drain() -> None:
            drain.wait()
            server.request_drain()

        watcher = threading.Thread(target=_watch_drain, daemon=True)
        watcher.start()
        return server.serve_forever()
