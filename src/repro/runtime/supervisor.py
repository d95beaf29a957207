"""Supervised parallel verification: a crash-tolerant worker pool and
the one job engine every fleet driver runs.

Real verification runs are *batches* — Definition 4 quantifies over
attackers and testers, so checking a protocol zoo means dozens of
independent bounded jobs.  This module makes fleets of runs resilient
the way :mod:`repro.runtime.deadline` made single runs resilient: a
worker crash, OOM kill, or hang costs one job's increment of work, not
the batch.

Architecture:

* a :class:`WorkerPool` owns the *process mechanics*: a pool of
  ``multiprocessing`` *spawn*-context workers, each with its own duplex
  pipe (a killed worker can only corrupt its own channel), a watchdog
  thread that SIGKILLs workers over their RSS limit, past their hard
  deadline, or missing heartbeats, and a reaper that turns dead
  processes into events;
* each **worker** (:mod:`repro.runtime.worker`) executes one job at a
  time, streams heartbeats from a daemon thread, and autosaves
  periodic exploration checkpoints;
* a :class:`JobEngine` owns the *per-job policy*: the attempt queue,
  dispatch payloads, failure classification by error type, one
  jittered exponential backoff, degradation to
  ``Exhaustion(reason="fault")`` verdicts, journal records, and
  verdict-store lookup and write-through;
* two drivers wrap the engine: :func:`run_suite` adds resume/skip,
  drain-without-shed and the :class:`SuiteReport`; the verification
  service (:mod:`repro.service.server`) adds sockets, admission
  limits, per-request deadlines, breakers and dedupe.  A verdict is
  therefore the same whichever driver computed it.

The failure policy — what each kind of failed attempt leads to, and
the few differences between the drivers that stay on purpose — is the
table in ``docs/runtime.md`` ("Failure policy").
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Iterable, Optional, Sequence

from repro.core.errors import ReproError
from repro.obs.metrics import Metrics, current_metrics
from repro.obs.stats import SuiteStats
from repro.obs.trace import trace_event
from repro.runtime.exhaustion import Exhaustion
from repro.runtime.faults import FaultPlan
from repro.runtime.journal import Journal, journaled_results
from repro.runtime.worker import Job, worker_main

#: Outcome statuses.
OK = "ok"            #: the job produced a verdict (possibly qualified)
FAULT = "fault"      #: retries exhausted; degraded to a partial verdict
SKIPPED = "skipped"  #: already journaled; not re-run (``resume=True``)
ERROR = "error"      #: the job itself is wrong (``JobError``); never retried

#: Worker ``error_type``\ s no retry can fix: the job description is
#: malformed or names an unknown system.
TERMINAL_ERRORS = frozenset({"JobError"})


class SupervisorError(ReproError):
    """The suite runner was misconfigured (duplicate ids, bad plan...)."""


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JobOutcome:
    """Final fate of one job in a supervised suite.

    ``status`` is ``"ok"`` (verdicted, possibly qualified), ``"fault"``
    (retry budget exhausted — ``result`` then carries an
    ``Exhaustion(reason="fault")`` record and whatever partial progress
    a checkpoint preserved) or ``"skipped"`` (verdicted by an earlier,
    journaled run).  ``events`` narrates crashes and retries.
    """

    job: Job
    status: str
    attempts: int
    elapsed: float
    result: Optional[dict] = None
    error: Optional[str] = None
    events: tuple[str, ...] = ()

    @property
    def violated(self) -> bool:
        """True when the verdict reports a broken property/attack."""
        return bool(self.result and self.result.get("violated"))

    @property
    def exact(self) -> bool:
        return bool(self.result and self.result.get("exact"))

    def describe(self) -> str:
        if self.status == FAULT:
            return f"{self.job.id}: FAULT after {self.attempts} attempt(s) ({self.error})"
        summary = (self.result or {}).get("summary", "no result")
        prefix = "skipped, " if self.status == SKIPPED else ""
        retries = f", {self.attempts} attempt(s)" if self.attempts > 1 else ""
        return f"{self.job.id}: {prefix}{summary}{retries}"


@dataclass(frozen=True)
class SuiteReport:
    """Everything a suite run produced, in job-submission order.

    ``drained`` marks a run stopped early by a drain request (SIGINT/
    SIGTERM): in-flight jobs were allowed to finish, but queued jobs
    never ran and are absent from ``outcomes`` — re-run the batch with
    ``resume=True`` to complete them.
    """

    outcomes: tuple[JobOutcome, ...]
    elapsed: float
    workers: int
    spawned: int = 0
    drained: bool = False
    submitted: int = 0

    def by_status(self, status: str) -> tuple[JobOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == status)

    @property
    def completed(self) -> bool:
        """Every submitted job is verdicted (ok, degraded, or skipped)."""
        if self.submitted and len(self.outcomes) < self.submitted:
            return False
        return all(o.status in (OK, FAULT, SKIPPED) for o in self.outcomes)

    @property
    def violations(self) -> tuple[JobOutcome, ...]:
        return tuple(o for o in self.outcomes if o.violated)

    def records(self) -> list[dict]:
        """The outcomes as journal-shaped result records."""
        return [
            {
                "job": o.job.id,
                "status": o.status,
                "attempts": o.attempts,
                "elapsed": round(o.elapsed, 4),
                "result": o.result,
                "error": o.error,
                "events": list(o.events),
            }
            for o in self.outcomes
        ]

    def stats(self) -> SuiteStats:
        """Aggregate per-job stat blocks into one :class:`SuiteStats`."""
        return SuiteStats.from_records(
            self.records(),
            wall_seconds=self.elapsed,
            workers=self.workers,
            spawned=self.spawned or None,
        )

    def describe(self) -> str:
        parts = [
            f"suite: {len(self.outcomes)} job(s) on {self.workers} worker(s) "
            f"in {self.elapsed:.2f}s"
        ]
        skipped = len(self.by_status(SKIPPED))
        faults = len(self.by_status(FAULT))
        if skipped:
            parts.append(f"skipped {skipped} journaled job(s)")
        if faults:
            parts.append(f"{faults} degraded to fault verdicts")
        if self.violations:
            parts.append(f"{len(self.violations)} property violation(s)")
        if self.drained:
            unrun = max(0, self.submitted - len(self.outcomes))
            parts.append(f"drained with {unrun} job(s) unrun (resume to complete)")
        return "; ".join(parts)


# ----------------------------------------------------------------------
# Pool bookkeeping
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    """Supervisor-side handle of one pool process.

    ``current`` is an opaque caller-owned payload (the job engine
    stores a :class:`Ticket`) — the pool only uses it to mean "busy"
    and hands it back on death.
    ``hard_deadline`` is the wall-clock kill limit of the job in flight
    (``None``: no limit).
    """

    index: int
    proc: multiprocessing.process.BaseProcess
    conn: mp_connection.Connection
    current: Optional[object] = None
    started_at: float = 0.0
    last_beat: float = 0.0
    kill_reason: Optional[str] = None
    hard_deadline: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid


def _rss_mb(pid: Optional[int]) -> Optional[float]:
    """Resident set size of a process in MiB via /proc (None off-Linux)."""
    if pid is None:
        return None
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            fields = handle.read().split()
        import resource

        return int(fields[1]) * resource.getpagesize() / (1024 * 1024)
    except (OSError, IndexError, ValueError):
        return None


def _kill_reason(
    worker: _Worker,
    now: float,
    max_rss_mb: Optional[float],
    hard_deadline: Optional[float],
    heartbeat_grace: float,
    rss_of: Callable[[Optional[int]], Optional[float]] = _rss_mb,
) -> Optional[str]:
    """Why the watchdog should SIGKILL this worker now, or ``None``.

    Pure decision logic (injectable RSS reader) so the policy is unit
    testable without real processes.  Only busy workers are judged: an
    idle worker holds no job to protect, and a dead idle worker is
    reaped by the main loop anyway.
    """
    if worker.current is None:
        return None
    if max_rss_mb is not None:
        rss = rss_of(worker.pid)
        if rss is not None and rss > max_rss_mb:
            return f"oom: rss {rss:.0f}MiB > {max_rss_mb:.0f}MiB"
    if hard_deadline is not None and now - worker.started_at > hard_deadline:
        return f"hang: job exceeded hard deadline {hard_deadline:.1f}s"
    if now - worker.last_beat > heartbeat_grace:
        return f"stalled: no heartbeat for {now - worker.last_beat:.1f}s"
    return None


# ----------------------------------------------------------------------
# The reusable worker pool
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PoolEvent:
    """One thing the pool observed during :meth:`WorkerPool.poll`.

    ``kind`` is ``"message"`` (a non-heartbeat worker message; see
    :func:`repro.runtime.worker.worker_main` for the schema) or
    ``"exit"`` (the process died — ``description`` says how, and
    ``current`` hands back whatever payload the worker was holding so
    the caller can retry or fail it).
    """

    kind: str
    worker: _Worker
    message: Optional[dict] = None
    description: Optional[str] = None
    current: Optional[object] = None


class WorkerPool:
    """A long-lived supervised pool of spawn-context worker processes.

    The pool owns *process mechanics only*: spawning and replacing
    workers, the heartbeat/RSS/deadline watchdog, SIGKILL, reaping, and
    the pipe plumbing.  What a job *means* — retries, degradation,
    journaling — is the :class:`JobEngine`'s, and client responses are
    the driver's.

    Args:
        size: target number of live workers (:meth:`ensure` tops up to
            this after crashes).
        heartbeat_interval: watchdog scan period and worker heartbeat
            period.
        heartbeat_grace: missed-heartbeat window before a SIGKILL.
        max_rss_mb: per-worker RSS kill limit (needs /proc).
        max_spawns: lifetime spawn budget — ``None`` for unbounded
            (services replace workers forever), a number to break
            pathological crash loops (batch runs).
    """

    def __init__(
        self,
        size: int,
        *,
        heartbeat_interval: float = 0.25,
        heartbeat_grace: float = 15.0,
        max_rss_mb: Optional[float] = None,
        max_spawns: Optional[int] = None,
        name: str = "repro-worker",
    ) -> None:
        if size < 1:
            raise SupervisorError("need at least one worker")
        self.size = size
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_grace = heartbeat_grace
        self.max_rss_mb = max_rss_mb
        self.max_spawns = max_spawns
        self.name = name
        self.spawned = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._pool: list[_Worker] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._next_index = 0
        self._watchdog = threading.Thread(
            target=self._watch, daemon=True, name=f"{name}-watchdog"
        )
        self._watchdog.start()

    # -- introspection -------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when the lifetime spawn budget is spent."""
        return self.max_spawns is not None and self.spawned >= self.max_spawns

    def workers(self) -> list[_Worker]:
        with self._lock:
            return list(self._pool)

    def idle(self) -> list[_Worker]:
        return [
            w for w in self.workers()
            if w.current is None and w.kill_reason is None
        ]

    def busy(self) -> list[_Worker]:
        return [w for w in self.workers() if w.current is not None]

    def alive_count(self) -> int:
        with self._lock:
            return len(self._pool)

    # -- lifecycle -----------------------------------------------------

    def spawn(self) -> Optional[_Worker]:
        """Start one worker process (``None`` when the budget is spent)."""
        if self.exhausted:
            return None
        self.spawned += 1
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._next_index, self.heartbeat_interval),
            name=f"{self.name}-{self._next_index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(
            index=self._next_index, proc=proc, conn=parent_conn,
            last_beat=time.monotonic(),
        )
        self._next_index += 1
        with self._lock:
            self._pool.append(worker)
        return worker

    def ensure(self, target: Optional[int] = None) -> None:
        """Spawn until ``min(target, size)`` workers are alive (or the
        spawn budget runs out)."""
        goal = self.size if target is None else min(target, self.size)
        while self.alive_count() < goal:
            if self.spawn() is None:
                break

    def dispatch(
        self,
        worker: _Worker,
        payload: dict,
        current: object,
        hard_deadline: Optional[float] = None,
    ) -> bool:
        """Send ``payload`` to an idle worker, marking it busy with
        ``current``.  Returns ``False`` (and condemns the worker) when
        the pipe is already broken — the caller should requeue."""
        now = time.monotonic()
        worker.current = current
        worker.started_at = now
        worker.last_beat = now
        worker.hard_deadline = hard_deadline
        try:
            worker.conn.send(payload)
            return True
        except (BrokenPipeError, OSError):
            worker.current = None
            worker.hard_deadline = None
            self.kill(worker, "dispatch pipe broken")
            return False

    def release(self, worker: _Worker) -> None:
        """Mark a worker idle again (its job was fully handled)."""
        worker.current = None
        worker.hard_deadline = None

    def kill(self, worker: _Worker, reason: str) -> None:
        """Condemn a worker: record why and SIGKILL the process."""
        if worker.kill_reason is None:
            worker.kill_reason = reason
        self._sigkill(worker)

    def poll(self, timeout: float = 0.1, wake: Sequence = ()) -> list[PoolEvent]:
        """Reap dead workers and drain worker messages.

        Returns ``"exit"`` events for processes found dead (their
        in-flight payload attached) followed by ``"message"`` events for
        everything workers sent (heartbeats are absorbed into
        ``last_beat`` and not surfaced).  Waits up to ``timeout`` for
        traffic; pass ``0`` for a non-blocking sweep.  ``wake`` adds
        file descriptors (or objects with ``fileno()``) that end the
        wait early without being read — the service passes its socket
        selector, so one wait covers worker pipes and clients together.
        """
        events: list[PoolEvent] = []
        with self._lock:
            dead = [w for w in self._pool if not w.proc.is_alive()]
        for worker in dead:
            events.append(self._reap(worker))
        with self._lock:
            conns = {w.conn: w for w in self._pool}
        waitables = [*conns, *wake]
        if not waitables:
            if timeout:
                time.sleep(timeout)
            return events
        for conn in mp_connection.wait(waitables, timeout=timeout):
            worker = conns.get(conn)
            if worker is None:
                continue  # a wake-up source; the caller reads it
            try:
                while conn.poll():
                    message = conn.recv()
                    worker.last_beat = time.monotonic()
                    if (
                        isinstance(message, dict)
                        and message.get("type") != "heartbeat"
                    ):
                        events.append(PoolEvent("message", worker, message=message))
            except (EOFError, OSError):
                # Pipe torn: the process is dead or dying.  Make it
                # unambiguous; the next poll reaps it.
                self._sigkill(worker)
        return events

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop the watchdog and terminate every worker (politely, then
        with SIGKILL)."""
        self._stop.set()
        self._watchdog.join(timeout=timeout)
        with self._lock:
            leftovers = list(self._pool)
            self._pool.clear()
        for worker in leftovers:
            try:
                worker.conn.send({"type": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
        for worker in leftovers:
            worker.proc.join(timeout=timeout)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=timeout)
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- internals -----------------------------------------------------

    def _reap(self, worker: _Worker) -> PoolEvent:
        """Remove a dead worker; returns its ``"exit"`` event."""
        with self._lock:
            if worker in self._pool:
                self._pool.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=1.0)
        if worker.kill_reason is not None:
            description = f"worker killed ({worker.kill_reason})"
        else:
            code = worker.proc.exitcode
            if code is not None and code < 0:
                description = f"worker died on signal {-code}"
            else:
                description = f"worker exited with status {code}"
        current, worker.current = worker.current, None
        return PoolEvent("exit", worker, description=description, current=current)

    def _sigkill(self, worker: _Worker) -> None:
        if worker.pid is not None:
            try:
                os.kill(worker.pid, getattr(signal, "SIGKILL", signal.SIGTERM))
            except (OSError, ProcessLookupError):
                pass

    def _watch(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            now = time.monotonic()
            with self._lock:
                snapshot = list(self._pool)
            for worker in snapshot:
                reason = _kill_reason(
                    worker, now, self.max_rss_mb, worker.hard_deadline,
                    self.heartbeat_grace,
                )
                if reason is not None and worker.kill_reason is None:
                    worker.kill_reason = reason
                    trace_event("suite.kill", worker=worker.index, reason=reason)
                    self._sigkill(worker)


# ----------------------------------------------------------------------
# Suite assembly helpers
# ----------------------------------------------------------------------


def zoo_jobs(
    max_states: int = 4000,
    max_depth: int = 40,
    protocols: Optional[Iterable[str]] = None,
    kinds: Sequence[str] = ("secrecy", "authentication"),
) -> list[Job]:
    """The standard batch over the protocol zoo: for every protocol,
    one job per requested property kind (session-key secrecy against an
    eavesdropper, payload authentication against an impersonator)."""
    from repro.protocols.zoo import ZOO

    names = sorted(protocols) if protocols is not None else sorted(ZOO)
    unknown = [name for name in names if name not in ZOO]
    if unknown:
        raise SupervisorError(f"unknown zoo protocols: {unknown}")
    return [
        Job(
            id=f"zoo:{name}:{kind}",
            kind=kind,
            target={"zoo": name},
            max_states=max_states,
            max_depth=max_depth,
        )
        for name in names
        for kind in kinds
    ]


def job_checkpoint_path(job: Job, directory: Optional[str]) -> Optional[str]:
    """Where a job's exploration autosaves live (``None``: no autosave)."""
    if job.kind != "explore" or directory is None:
        return None
    safe = "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in job.id)
    return os.path.join(directory, f"{safe}.ckpt")


def checkpointed_states(job: Job, directory: Optional[str]) -> int:
    """States preserved in a job's autosave (0 when none is loadable)."""
    path = job_checkpoint_path(job, directory)
    if path is None or not os.path.exists(path):
        return 0
    from repro.runtime.checkpoint import Checkpoint, CheckpointError

    try:
        return Checkpoint.load(path).graph.state_count()
    except CheckpointError:
        return 0


# ----------------------------------------------------------------------
# The job engine
# ----------------------------------------------------------------------


@dataclass(eq=False)
class Ticket:
    """One job travelling queue -> worker -> verdict, with its retry state.

    ``ready_at`` (retry backoff) and ``deadline_at`` (a whole-request
    budget; services only) are the attributes
    :class:`~repro.service.admission.AdmissionQueue` keys on.
    ``protocol`` is stamped on journal records (the service's breaker
    key).  Drivers subclass the ticket to carry their own routing state.
    """

    job: Job
    attempt: int = 1
    ready_at: float = 0.0
    deadline_at: Optional[float] = None
    started_first: Optional[float] = None
    store_key: Optional[str] = None
    protocol: Optional[str] = None
    fault_plan: Optional[dict] = None
    fault_attempts: Sequence[int] = (1,)
    events: list[str] = field(default_factory=list)

    def elapsed(self, now: float) -> float:
        """Seconds since the first dispatch (0 when never dispatched)."""
        return now - self.started_first if self.started_first is not None else 0.0


class JobEngine:
    """The per-job policy both drivers run on one :class:`WorkerPool`.

    A failed attempt is classified by the worker's ``error_type``:

    * ``JobError`` is terminal — the job is malformed or names an
      unknown system, and no retry changes that;
    * ``CertificationError`` counts ``witness.failed`` and is retried;
    * anything else, crashes and watchdog kills included, is retried
      after a jittered exponential backoff and degraded to an
      ``Exhaustion(reason="fault")`` verdict once ``retries`` are spent
      — or at once while :attr:`draining`.

    Every verdict goes through :meth:`finish`: one journal record, then
    ``on_verdict(ticket, status, result, error)`` with ``status`` one of
    ``"ok"``, ``"fault"`` or ``"error"`` (terminal; ``result`` is then
    the fault verdict).  ``on_failure(ticket, description, crashed)``
    sees every failed attempt first; ``admit(ticket, now)`` may veto a
    dispatch, settling the ticket itself.  ``queue`` is an
    :class:`~repro.service.admission.AdmissionQueue`.
    """

    def __init__(
        self,
        pool: WorkerPool,
        queue,
        on_verdict: Callable[[Ticket, str, Optional[dict], Optional[str]], None],
        *,
        retries: int,
        backoff_base: float,
        backoff_cap: float,
        metrics: Metrics,
        job_deadline: Optional[float] = None,
        hang_grace: float = 5.0,
        checkpoint_dir: Optional[str] = None,
        journal: Optional[Journal] = None,
        store=None,
        on_failure: Optional[Callable[[Ticket, str, bool], None]] = None,
        admit: Optional[Callable[[Ticket, float], bool]] = None,
        trace_prefix: str = "suite",
    ) -> None:
        self.pool = pool
        self.queue = queue
        self.on_verdict = on_verdict
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.metrics = metrics
        self.job_deadline = job_deadline
        self.hang_grace = hang_grace
        self.checkpoint_dir = checkpoint_dir
        self.journal = journal
        self.store = store
        self.on_failure = on_failure
        self.admit = admit
        self.trace_prefix = trace_prefix
        #: Degrade failed attempts at once instead of retrying them.
        self.draining = False

    def lookup(self, ticket: Ticket) -> Optional[dict]:
        """Cache-aside verdict-store check: the stored verdict on a hit;
        on a miss the key stays on the ticket for write-through.
        Tickets carrying a fault plan bypass the store — injected faults
        must actually run, and their verdicts must never persist."""
        if self.store is None or ticket.fault_plan is not None:
            return None
        from repro.service.store import store_key

        ticket.store_key = store_key(ticket.job)
        if ticket.store_key is None:
            return None
        result = self.store.lookup(ticket.store_key)
        self.metrics.inc("store.miss" if result is None else "store.hit")
        return result

    def dispatch_ready(self, now: float) -> None:
        """Hand tickets whose backoff has passed to idle workers."""
        for worker in self.pool.idle():
            ticket = self.queue.take(now)
            if ticket is None:
                break
            if self.admit is not None and not self.admit(ticket, now):
                continue
            if ticket.deadline_at is not None:
                deadline = max(0.0, ticket.deadline_at - now)
            else:
                deadline = self.job_deadline
            if ticket.started_first is None:
                ticket.started_first = now
            sent = self.pool.dispatch(
                worker,
                {
                    "type": "job",
                    "job": ticket.job.to_json(),
                    "attempt": ticket.attempt,
                    "deadline": deadline,
                    "checkpoint": job_checkpoint_path(ticket.job, self.checkpoint_dir),
                    "fault_plan": (
                        ticket.fault_plan
                        if ticket.attempt in ticket.fault_attempts
                        else None
                    ),
                },
                current=ticket,
                # Backstop for hangs that never poll the cooperative deadline.
                hard_deadline=(
                    deadline * 1.5 + self.hang_grace if deadline is not None else None
                ),
            )
            if sent:
                trace_event(
                    f"{self.trace_prefix}.dispatch",
                    job=ticket.job.id,
                    worker=worker.index,
                    attempt=ticket.attempt,
                )
            else:
                self.queue.requeue(ticket)  # dead pipe; the reaper respawns

    def step(self, timeout: float, wake: Sequence = ()) -> None:
        """Wait up to ``timeout`` for pool traffic (or for ``wake``, see
        :meth:`WorkerPool.poll`) and handle every event that arrived."""
        for event in self.pool.poll(timeout, wake):
            if event.kind == "exit":
                if event.current is not None:
                    self._failed(
                        event.current, event.description or "worker lost", True
                    )
                continue
            ticket, message = event.worker.current, event.message
            kind = message.get("type")
            if (
                kind not in ("result", "error")
                or ticket is None
                or message.get("job") != ticket.job.id
            ):
                continue  # liveness chatter, or a job already given up on
            self.pool.release(event.worker)
            if kind == "result":
                self._complete(ticket, message["result"])
                continue
            error_type = message.get("error_type")
            if error_type == "CertificationError":
                # A violation whose witness would not replay must never
                # surface as a clean verdict.
                self.metrics.inc("witness.failed")
            self._failed(
                ticket,
                message.get("error", "worker error"),
                False,
                terminal=error_type in TERMINAL_ERRORS,
            )

    def _failed(
        self, ticket: Ticket, description: str, crashed: bool, terminal: bool = False
    ) -> None:
        """One attempt failed: settle the ticket or schedule its retry."""
        ticket.events.append(f"attempt {ticket.attempt}: {description}")
        if self.on_failure is not None:
            self.on_failure(ticket, description, crashed)
        if terminal:
            verdict = self._fault_verdict(ticket, description)
            self.finish(ticket, ERROR, verdict, description)
        elif self.draining or ticket.attempt > self.retries:
            self.degrade(ticket, description)
        else:
            delay = min(
                self.backoff_cap, self.backoff_base * (2 ** (ticket.attempt - 1))
            )
            # Half-to-full jitter: a fleet whose workers one machine-wide
            # event killed must not re-dispatch on one schedule.
            delay *= 0.5 + 0.5 * random.random()
            ticket.attempt += 1
            ticket.ready_at = time.monotonic() + delay
            self.queue.requeue(ticket)

    def _fault_verdict(self, ticket: Ticket, detail: str) -> dict:
        now = time.monotonic()
        exhaustion = Exhaustion.single(
            "fault",
            states=checkpointed_states(ticket.job, self.checkpoint_dir),
            elapsed=ticket.elapsed(now) if ticket.started_first is not None else None,
            detail=detail,
        )
        return exhaustion.verdict(ticket.job.kind)

    def degrade(self, ticket: Ticket, detail: str) -> None:
        """Settle a ticket with a qualified partial verdict."""
        self.finish(ticket, FAULT, self._fault_verdict(ticket, detail), detail)

    def _complete(self, ticket: Ticket, result: dict) -> None:
        if result.get("certified"):
            self.metrics.inc("witness.replayed")
        if self.store is not None and ticket.store_key is not None:
            # Write-through happens only here: fault verdicts are
            # retryable stubs, and `put` refuses anything not
            # budget-pure.  Store trouble costs the cache, never the
            # verdict.
            try:
                if self.store.put(
                    ticket.store_key, result, kind=ticket.job.kind,
                    protocol=ticket.protocol,
                ):
                    self.metrics.inc("store.write")
            except OSError:
                self.metrics.inc("store.error")
        self.finish(ticket, OK, result)

    def finish(
        self,
        ticket: Ticket,
        status: str,
        result: Optional[dict],
        error: Optional[str] = None,
    ) -> None:
        """Journal one verdict and hand it to the driver.  Terminal
        errors journal as ``error`` records, which resume filtering
        ignores."""
        if self.journal is not None:
            if status == ERROR:
                record = {
                    "type": "error",
                    "job": ticket.job.id,
                    "attempts": ticket.attempt,
                    "error": error,
                }
            else:
                record = {
                    "type": "result",
                    "job": ticket.job.id,
                    "status": status,
                    "attempts": ticket.attempt,
                    "elapsed": round(ticket.elapsed(time.monotonic()), 4),
                    "result": result,
                    "error": error,
                    "events": list(ticket.events),
                }
            if ticket.protocol is not None:
                record["protocol"] = ticket.protocol
            self.journal.append(record)
        self.on_verdict(ticket, status, result, error)


# ----------------------------------------------------------------------
# The batch runner
# ----------------------------------------------------------------------


def run_suite(
    jobs: Sequence[Job],
    workers: int = 2,
    retries: int = 2,
    job_deadline: Optional[float] = None,
    max_rss_mb: Optional[float] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    retry_faults: bool = False,
    checkpoint_dir: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    fault_attempts: Sequence[int] = (1,),
    heartbeat_interval: float = 0.25,
    heartbeat_grace: float = 15.0,
    hang_grace: float = 5.0,
    backoff_base: float = 0.25,
    backoff_cap: float = 8.0,
    on_outcome: Optional[Callable[[JobOutcome], None]] = None,
    drain: Optional[threading.Event] = None,
    verdict_store: Optional[str] = None,
) -> SuiteReport:
    """Run a batch of verification jobs under supervision.

    Args:
        jobs: the batch; ids must be unique (they key the journal and
            checkpoint files).
        workers: pool size (spawn-context processes).
        retries: extra attempts per job after its first.
        job_deadline: cooperative per-job wall-clock limit in seconds;
            the watchdog hard-kills at ``1.5 × deadline + hang_grace``
            as a backstop for non-polling hangs.
        max_rss_mb: per-worker RSS limit; exceeding it is treated as an
            OOM (SIGKILL + retry).  Needs /proc; silently inactive
            elsewhere.
        journal_path: stream verdicts to this crash-safe JSONL file.
        resume: skip jobs already verdicted in ``journal_path``.
        retry_faults: with ``resume``, re-run jobs whose journaled
            verdict was a degraded ``"fault"`` — the way to complete a
            batch whose earlier run shed or degraded jobs (service
            drain, crash-looped workers).
        checkpoint_dir: where ``explore`` autosaves live (default: a
            temporary directory, removed afterwards; pass a real path
            to keep checkpoints across supervisor restarts).
        fault_plan: test instrumentation — inject this
            :class:`FaultPlan` into workers for the attempts listed in
            ``fault_attempts`` (default: first attempt only, so a
            deterministic crash is recovered rather than repeated).
        on_outcome: called with each :class:`JobOutcome` as it is
            decided (progress reporting).
        drain: optional event; once set, no further jobs are
            dispatched — in-flight jobs finish (their verdicts are
            journaled), queued jobs stay un-journaled, and the report
            comes back ``drained=True``.  Wired to SIGINT/SIGTERM by
            the CLI (see :mod:`repro.runtime.lifecycle`).
        verdict_store: directory of a persistent cross-run
            :class:`~repro.service.store.VerdictStore`.  Jobs whose key
            has a stored verdict are served from it (``attempts=0``,
            journaled like a computed outcome so ``resume`` still
            works); budget-pure ``ok`` verdicts are written through.
            Degraded fault outcomes are never written — they stay
            retryable.  Fault-plan runs bypass the store.

    Returns:
        A :class:`SuiteReport`; every submitted job appears exactly
        once, in submission order — except under ``drain``, where jobs
        that never started are absent.  A terminal ``JobError`` job
        reports as ``"fault"`` after one attempt.
    """
    from repro.service.admission import AdmissionQueue

    jobs = list(jobs)
    ids = [job.id for job in jobs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise SupervisorError(f"duplicate job ids: {dupes}")
    if workers < 1:
        raise SupervisorError("need at least one worker")
    if resume and journal_path is None:
        raise SupervisorError("resume=True needs a journal_path")

    started = time.monotonic()
    done: dict[str, JobOutcome] = {}

    def on_verdict(ticket: Ticket, status: str, result, error) -> None:
        outcome = JobOutcome(
            job=ticket.job,
            # A terminal job error is the suite's fault verdict too.
            status=status if status in (OK, SKIPPED) else FAULT,
            attempts=ticket.attempt,
            elapsed=ticket.elapsed(time.monotonic()),
            result=result,
            error=error,
            events=tuple(ticket.events),
        )
        done[ticket.job.id] = outcome
        trace_event(
            "suite.outcome", job=ticket.job.id, status=outcome.status,
            attempts=outcome.attempts,
        )
        if on_outcome is not None:
            on_outcome(outcome)

    prior = journaled_results(journal_path) if resume else {}
    journal = (
        Journal(journal_path, fresh=not resume) if journal_path is not None else None
    )
    store = None
    if verdict_store is not None:
        from repro.service.store import VerdictStore

        store = VerdictStore(verdict_store)
    scratch = checkpoint_dir
    scratch_owned = False
    if scratch is None and any(job.kind == "explore" for job in jobs):
        scratch = tempfile.mkdtemp(prefix="repro-suite-")
        scratch_owned = True
    elif scratch is not None:
        os.makedirs(scratch, exist_ok=True)

    # Every legitimate spawn is a pool slot or a post-crash replacement;
    # the cap only breaks pathological crash loops (e.g. workers dying
    # on import) instead of spinning forever.
    pool = WorkerPool(
        workers,
        heartbeat_interval=heartbeat_interval,
        heartbeat_grace=heartbeat_grace,
        max_rss_mb=max_rss_mb,
        max_spawns=workers + len(jobs) * (retries + 1),
        name="repro-suite-worker",
    )
    ambient = current_metrics()
    metrics = Metrics()
    queue: AdmissionQueue[Ticket] = AdmissionQueue(max(1, len(jobs)))
    engine = JobEngine(
        pool, queue, on_verdict,
        retries=retries,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
        metrics=metrics,
        job_deadline=job_deadline,
        hang_grace=hang_grace,
        checkpoint_dir=scratch,
        journal=journal,
        store=store,
    )
    plan_json = fault_plan.to_json() if fault_plan is not None else None

    drained = False
    try:
        for job in jobs:
            record = prior.get(job.id)
            if record is not None and not (
                retry_faults and record.get("status") == FAULT
            ):
                on_verdict(
                    Ticket(job, attempt=int(record.get("attempts", 1))),
                    SKIPPED, record.get("result"), record.get("error"),
                )
                continue
            ticket = Ticket(job, fault_plan=plan_json, fault_attempts=fault_attempts)
            cached = engine.lookup(ticket)
            if cached is None:
                queue.offer(ticket)
                continue
            # Journaled like a computed outcome, so `resume` skips it.
            ticket.attempt = 0  # no worker ever dispatched
            ticket.events.append("served from verdict store")
            engine.finish(ticket, OK, cached)

        while len(done) < len(jobs):
            # Reap the dead first so their jobs re-enter the queue.
            engine.step(0)
            if drain is not None and drain.is_set():
                # Stop dispatching; once nothing is in flight, stop.
                # Queued and crashed jobs stay un-journaled for resume.
                if not pool.busy():
                    drained = True
                    break
            else:
                pool.ensure(len(jobs) - len(done))
                engine.dispatch_ready(time.monotonic())
            if len(done) >= len(jobs):
                break
            if pool.alive_count() == 0 and pool.exhausted and len(queue):
                # Crash-looping pool: degrade whatever is left rather
                # than spinning forever.
                for ticket in queue.drain():
                    detail = "worker pool exhausted its respawn budget"
                    ticket.events.append(detail)
                    engine.degrade(ticket, detail)
                continue
            # A bounded wait keeps the loop live for backoff expiry.
            engine.step(0.1)
    finally:
        pool.shutdown()
        if journal is not None:
            journal.close()
        if store is not None:
            store.close()
        if scratch_owned and scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    elapsed = time.monotonic() - started
    report = SuiteReport(
        outcomes=tuple(done[job.id] for job in jobs if job.id in done),
        elapsed=elapsed,
        workers=workers,
        spawned=pool.spawned,
        drained=drained,
        submitted=len(jobs),
    )
    if ambient is not None:
        ambient.absorb(metrics)
        ambient.inc("suite.jobs", len(jobs))
        ambient.inc("suite.spawns", pool.spawned)
        ambient.inc(
            "suite.retries", sum(max(0, o.attempts - 1) for o in report.outcomes)
        )
        ambient.inc("suite.faults", len(report.by_status(FAULT)))
        ambient.set_gauge("suite.workers", workers)
        ambient.observe("suite.seconds", elapsed)
    return report
