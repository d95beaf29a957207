"""Tests for the job engine both fleet drivers share.

:class:`~repro.runtime.supervisor.JobEngine` owns the per-job failure
policy: error classification, jittered backoff, degradation, journal
records and verdict-store traffic.  The unit layer drives it with a
scripted fake pool (no processes, no sleeps).  The integration layer
pins the two promises the single engine exists for: ``suite`` and
``serve`` reach the same verdicts on the same jobs, and the service
answers as soon as a worker finishes rather than on its timer tick.
"""

from __future__ import annotations

import re
import time

from repro.obs.metrics import Metrics
from repro.runtime.faults import FaultPlan
from repro.runtime.journal import Journal, journaled_results, read_journal
from repro.runtime.supervisor import (
    ERROR,
    FAULT,
    OK,
    JobEngine,
    PoolEvent,
    Ticket,
    run_suite,
)
from repro.runtime.worker import Job
from repro.service.admission import AdmissionQueue
from tests.test_service import running_server
from tests.test_supervisor import FAST

ZOO_JOB = Job(
    id="zoo:yahalom:secrecy", kind="secrecy", target={"zoo": "yahalom"},
    max_states=400, max_depth=24,
)


# ----------------------------------------------------------------------
# Unit layer: a scripted pool
# ----------------------------------------------------------------------


class _Worker:
    index = 0

    def __init__(self) -> None:
        self.current = None


class _ScriptedPool:
    """Just enough of :class:`WorkerPool` for the engine: one worker,
    and ``poll`` hands back whatever the test queued."""

    def __init__(self) -> None:
        self.worker = _Worker()
        self.events: list[PoolEvent] = []
        self.sent: list[dict] = []

    def idle(self):
        return [self.worker] if self.worker.current is None else []

    def dispatch(self, worker, payload, current, hard_deadline=None):
        worker.current = current
        self.sent.append(payload)
        return True

    def release(self, worker):
        worker.current = None

    def poll(self, timeout=0.1, wake=()):
        events, self.events = self.events, []
        return events

    def reply(self, **message):
        ticket = self.worker.current
        message.setdefault("job", ticket.job.id)
        self.events.append(PoolEvent("message", self.worker, message=message))

    def crash(self):
        ticket, self.worker.current = self.worker.current, None
        self.events.append(PoolEvent(
            "exit", self.worker, description="worker exited with status 70",
            current=ticket,
        ))


def _engine(tmp_path, retries=1, **hooks):
    pool = _ScriptedPool()
    verdicts = []
    journal = Journal(str(tmp_path / "engine.jsonl"))
    engine = JobEngine(
        pool, AdmissionQueue(8),
        lambda ticket, status, result, error: verdicts.append(
            (ticket, status, result, error)
        ),
        retries=retries, backoff_base=0.0, backoff_cap=0.0,
        metrics=Metrics(), journal=journal, **hooks,
    )
    return engine, pool, verdicts, journal


def _run_once(engine, pool):
    engine.dispatch_ready(time.monotonic())
    assert pool.worker.current is not None, "nothing was dispatched"


class TestClassification:
    def test_job_error_is_terminal_after_one_attempt(self, tmp_path):
        failures = []
        engine, pool, verdicts, journal = _engine(
            tmp_path, retries=3,
            on_failure=lambda t, d, crashed: failures.append(crashed),
        )
        engine.queue.offer(Ticket(ZOO_JOB))
        _run_once(engine, pool)
        pool.reply(type="error", error="JobError: unknown zoo protocol",
                   error_type="JobError")
        engine.step(0)
        journal.close()
        [(ticket, status, result, error)] = verdicts
        assert status == ERROR and ticket.attempt == 1
        assert error == "JobError: unknown zoo protocol"
        assert result["exhaustion"]["reasons"] == ["fault"]
        assert failures == [False]
        assert len(engine.queue) == 0
        [record] = read_journal(journal.path)
        assert record["type"] == "error" and record["attempts"] == 1
        assert journaled_results(journal.path) == {}  # resume re-runs it

    def test_certification_error_counts_and_retries(self, tmp_path):
        engine, pool, verdicts, journal = _engine(tmp_path, retries=1)
        engine.queue.offer(Ticket(ZOO_JOB))
        for _ in range(2):
            _run_once(engine, pool)
            pool.reply(type="error", error="CertificationError: replay diverged",
                       error_type="CertificationError")
            engine.step(0)
        journal.close()
        assert engine.metrics.counter("witness.failed").value == 2
        [(ticket, status, result, error)] = verdicts
        assert status == FAULT and ticket.attempt == 2
        assert result["summary"].startswith("no verdict")
        assert "CertificationError" in error

    def test_crash_retries_then_succeeds(self, tmp_path):
        failures = []
        engine, pool, verdicts, journal = _engine(
            tmp_path, retries=1,
            on_failure=lambda t, d, crashed: failures.append(crashed),
        )
        engine.queue.offer(Ticket(ZOO_JOB))
        _run_once(engine, pool)
        pool.crash()
        engine.step(0)
        _run_once(engine, pool)
        pool.reply(type="result", result={"summary": "fine", "certified": True})
        engine.step(0)
        journal.close()
        [(ticket, status, result, error)] = verdicts
        assert (status, ticket.attempt, error) == (OK, 2, None)
        assert failures == [True]
        assert engine.metrics.counter("witness.replayed").value == 1
        assert [p["attempt"] for p in pool.sent] == [1, 2]
        [record] = read_journal(journal.path)
        assert record["status"] == "ok" and record["attempts"] == 2
        assert record["events"] == ["attempt 1: worker exited with status 70"]

    def test_draining_degrades_without_retrying(self, tmp_path):
        engine, pool, verdicts, journal = _engine(tmp_path, retries=5)
        engine.queue.offer(Ticket(ZOO_JOB))
        _run_once(engine, pool)
        engine.draining = True
        pool.crash()
        engine.step(0)
        journal.close()
        [(ticket, status, _, error)] = verdicts
        assert status == FAULT and ticket.attempt == 1
        assert error == "worker exited with status 70"

    def test_backoff_is_jittered_and_capped(self, tmp_path):
        engine, pool, _, journal = _engine(tmp_path, retries=9)
        engine.backoff_base, engine.backoff_cap = 1.0, 3.0
        ticket = Ticket(ZOO_JOB)
        engine.queue.offer(ticket)
        delays = []
        for attempt in range(1, 5):
            ticket.ready_at = 0.0
            _run_once(engine, pool)
            pool.crash()
            before = time.monotonic()
            engine.step(0)
            delays.append((attempt, ticket.ready_at - before))
        journal.close()
        for attempt, delay in delays:
            full = min(3.0, 2 ** (attempt - 1))
            assert 0.5 * full - 0.01 <= delay <= full + 0.01

    def test_stale_messages_are_ignored(self, tmp_path):
        engine, pool, verdicts, journal = _engine(tmp_path)
        engine.queue.offer(Ticket(ZOO_JOB))
        _run_once(engine, pool)
        pool.reply(type="started")
        pool.reply(type="result", result={}, job="some-other-job")
        engine.step(0)
        journal.close()
        assert verdicts == [] and pool.worker.current is not None


# ----------------------------------------------------------------------
# Integration: suite and serve agree, and serve answers promptly
# ----------------------------------------------------------------------

#: ``(job, fault attempts)``: a crash at successor call 3 on the listed
#: attempts.  The unknown protocol fails before exploring at all.
_PARITY = (
    (ZOO_JOB, None),
    (Job(id="recovers", kind="secrecy", target={"zoo": "needham-schroeder-sk"},
         max_states=400, max_depth=24), (1,)),
    (Job(id="doomed", kind="secrecy", target={"zoo": "otway-rees"},
         max_states=1200, max_depth=30), (1, 2, 3, 4)),
    (Job(id="unknown", kind="secrecy", target={"zoo": "no-such-protocol"}), None),
)
_CRASH = FaultPlan(exit_at=(3,))


def _verdict_fields(result: dict) -> dict:
    return {
        "violated": result["violated"],
        "exact": result["exact"],
        "reasons": (result.get("exhaustion") or {}).get("reasons"),
        # Degraded summaries carry the wall-clock time of the attempts.
        "summary": re.sub(r", \d+\.\d+s", "", result["summary"]),
    }


class TestSuiteServeParity:
    RETRIES = 1

    def test_one_job_list_same_verdicts(self, tmp_path):
        suite = {}
        for attempts in {a for _, a in _PARITY}:
            batch = [job for job, a in _PARITY if a == attempts]
            report = run_suite(
                batch, workers=1, retries=self.RETRIES,
                fault_plan=_CRASH if attempts else None,
                fault_attempts=attempts or (1,), **FAST,
            )
            suite.update({o.job.id: o for o in report.outcomes})

        journal = str(tmp_path / "serve.jsonl")
        served = {}
        with running_server(
            workers=1, retries=self.RETRIES, allow_fault_injection=True,
            breaker_threshold=100, journal_path=journal,
        ) as (_, client):
            for job, attempts in _PARITY:
                extra = {}
                if attempts:
                    extra = {"fault_plan": _CRASH.to_json(),
                             "fault_attempts": list(attempts)}
                served[job.id] = client.submit(
                    job.kind, job.target, id=job.id,
                    max_states=job.max_states, max_depth=job.max_depth, **extra,
                )
        records = {r["job"]: r for r in read_journal(journal)}

        expected = {"zoo:yahalom:secrecy": ("ok", 1), "recovers": ("ok", 2),
                    "doomed": ("degraded", 2), "unknown": ("error", 1)}
        for job_id, (status, attempts) in expected.items():
            outcome, reply = suite[job_id], served[job_id]
            mapped = {"ok": "ok", "fault": "degraded"}[outcome.status]
            if outcome.error and outcome.error.startswith("JobError"):
                mapped = "error"
            assert (mapped, outcome.attempts) == (status, attempts), job_id
            assert reply["status"] == status, (job_id, reply)
            assert records[job_id]["attempts"] == attempts, job_id
            if status == "error":
                assert reply["error"] == outcome.error
                continue
            assert _verdict_fields(reply["result"]) == _verdict_fields(
                outcome.result
            ), job_id


class TestPromptReplies:
    def test_verdict_does_not_wait_for_the_tick(self):
        """The serve loop's one wait covers worker pipes: with a 2 s
        tick a warm request is still answered as soon as it is done."""
        with running_server(workers=1, tick=2.0) as (_, client):
            warm = client.submit("secrecy", {"zoo": "yahalom"}, id="warm",
                                 max_states=400, max_depth=24)
            assert warm["status"] == "ok"
            started = time.monotonic()
            reply = client.submit("secrecy", {"zoo": "yahalom"}, id="timed",
                                  max_states=400, max_depth=24)
            elapsed = time.monotonic() - started
        assert reply["status"] == "ok"
        assert elapsed < 1.0, f"answered after {elapsed:.2f}s"


def test_suite_records_a_job_error_after_one_attempt():
    bad = Job(id="unknown", kind="secrecy", target={"zoo": "no-such-protocol"})
    report = run_suite([bad], workers=1, retries=3, **FAST)
    [outcome] = report.outcomes
    assert outcome.status == "fault" and outcome.attempts == 1
    assert "unknown zoo protocol" in outcome.error
    assert report.completed

