"""Verification jobs and the pool-worker process entry point.

A :class:`Job` is a *description* of one bounded verification run — an
exploration, a property check against an attacker, or a Definition-4
implementation check — over a named system (a protocol-zoo entry, a
``.spi`` process file, inline source, or a system file).  Descriptions
are plain JSON, so they cross the spawn boundary to worker processes,
live in suite files, and key the crash-safe result journal.

:func:`run_job` executes a job in-process and returns a JSON-ready
result dict; :func:`worker_main` is the long-lived worker loop the
supervisor spawns (see :mod:`repro.runtime.supervisor`): it pulls job
messages off a pipe, executes them, and streams back ``started`` /
``heartbeat`` / ``result`` / ``error`` messages.

Worker-side resilience:

* every job runs under a cooperative soft deadline (the supervisor adds
  a hard-kill backstop on top);
* ``explore`` jobs autosave periodic checkpoints
  (``RunControl.checkpoint_every``), so a crashed attempt resumes from
  the last interval instead of restarting — a corrupt autosave file
  degrades to a from-scratch restart, never an error;
* an active :class:`~repro.runtime.faults.FaultPlan` can be attached
  per-attempt for deterministic crash/fault testing (``exit_at`` kills
  the process mid-job; ``fail_at`` exercises in-process degradation);
* a failing job turns into an ``error`` message, never a dead worker —
  the process survives to take the next job.
"""

from __future__ import annotations

import os
import threading
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.errors import ReproError
from repro.runtime.deadline import Deadline, RunControl, governed
from repro.runtime.faults import FaultPlan, inject_faults

#: Recognized job kinds.
KINDS = frozenset({"explore", "secrecy", "authentication", "freshness", "check"})

#: When this environment variable is truthy, every violation verdict is
#: independently replayed (reduction suspended, state cache off) before
#: it is reported; a violation that cannot be certified raises
#: :class:`~repro.semantics.replay.CertificationError`, which the
#: job engine (:class:`~repro.runtime.supervisor.JobEngine`) retries and
#: then degrades to a retryable fault.
CERTIFY_ENV = "REPRO_CERTIFY"


def certify_enabled() -> bool:
    """Is violation certification requested for this process?"""
    return os.environ.get(CERTIFY_ENV, "") not in ("", "0")

#: Per-kind target schemas (one of the listed key sets must match).
_TARGET_KEYS = ("zoo", "spi", "source", "sysfile", "impl", "spec")


class JobError(ReproError):
    """A job description is malformed or names an unknown system."""


@dataclass(frozen=True)
class Job:
    """One verification job, fully described by JSON-serializable data.

    Attributes:
        id: unique key within a suite; journal records and checkpoint
            files are named after it.
        kind: ``explore`` | ``secrecy`` | ``authentication`` |
            ``freshness`` | ``check``.
        target: what to verify — ``{"zoo": name}``, ``{"spi": path}``,
            ``{"source": text}``, ``{"sysfile": path}``, or (``check``
            only) ``{"impl": path, "spec": path}``.
        max_states / max_depth: the exploration budget.
        secret: secret base name (``secrecy``; default ``KAB`` for zoo
            targets).
        sender: authenticated sender role (``authentication``; default
            ``A``).
        checkpoint_every: states between checkpoint autosaves for
            ``explore`` jobs run under a supervisor.
    """

    id: str
    kind: str
    target: Mapping[str, str]
    max_states: int = 2000
    max_depth: int = 64
    secret: Optional[str] = None
    sender: Optional[str] = None
    checkpoint_every: Optional[int] = 400

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise JobError(f"job {self.id!r}: unknown kind {self.kind!r}")
        if not self.id:
            raise JobError("a job needs a non-empty id")
        unknown = set(self.target) - set(_TARGET_KEYS)
        if unknown or not self.target:
            raise JobError(
                f"job {self.id!r}: bad target keys {sorted(self.target or ())!r}"
            )
        if self.kind == "check" and not {"impl", "spec"} <= set(self.target):
            raise JobError(f"job {self.id!r}: check needs impl and spec system files")

    def to_json(self) -> dict:
        data = {
            "id": self.id,
            "kind": self.kind,
            "target": dict(self.target),
            "max_states": self.max_states,
            "max_depth": self.max_depth,
        }
        for key in ("secret", "sender", "checkpoint_every"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    @staticmethod
    def from_json(data: Mapping) -> "Job":
        try:
            return Job(
                id=str(data["id"]),
                kind=str(data["kind"]),
                target=dict(data["target"]),
                max_states=int(data.get("max_states", 2000)),
                max_depth=int(data.get("max_depth", 64)),
                secret=data.get("secret"),
                sender=data.get("sender"),
                checkpoint_every=data.get("checkpoint_every", 400),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise JobError(f"malformed job description: {err}")


# ----------------------------------------------------------------------
# Job execution
# ----------------------------------------------------------------------


def _read_spi(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _zoo_spec(job: Job):
    from repro.protocols.zoo import ZOO

    name = job.target["zoo"]
    builder = ZOO.get(name)
    if builder is None:
        raise JobError(f"job {job.id!r}: unknown zoo protocol {name!r}")
    return builder()


def _explore_system(job: Job):
    """Materialize the system an ``explore`` job walks."""
    from repro.semantics.system import instantiate
    from repro.syntax.parser import parse_process

    if "zoo" in job.target:
        from repro.equivalence.testing import compose
        from repro.protocols.library import narration_configuration

        spec = _zoo_spec(job)
        return compose(
            narration_configuration(spec, observed_role="B", observed_datum="PAYLOAD")
        )
    if "source" in job.target:
        return instantiate(parse_process(job.target["source"]))
    if "spi" in job.target:
        return instantiate(parse_process(_read_spi(job.target["spi"])))
    raise JobError(f"job {job.id!r}: explore needs a zoo/spi/source target")


def _run_explore(job: Job, control: RunControl, checkpoint_path: Optional[str]) -> dict:
    from repro.runtime.checkpoint import Checkpoint, CheckpointError
    from repro.semantics.diagnostics import statistics
    from repro.semantics.lts import Budget, explore, resume_exploration

    from repro.obs.metrics import current_metrics

    budget = Budget(job.max_states, job.max_depth)
    sink = None
    if checkpoint_path is not None and job.checkpoint_every:

        def sink(graph) -> None:
            Checkpoint(graph, budget).save(checkpoint_path)
            metrics = current_metrics()
            if metrics is not None:
                metrics.inc("checkpoint.saves")

        control = RunControl(
            deadline=control.deadline,
            token=control.token,
            checkpoint_every=job.checkpoint_every,
            on_checkpoint=sink,
        )
    resumed = False
    graph = None
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        try:
            saved = Checkpoint.load(checkpoint_path)
        except CheckpointError:
            saved = None  # corrupt autosave -> restart from scratch
        if saved is not None:
            graph = resume_exploration(saved.graph, budget, control)
            resumed = True
    if graph is None:
        graph = explore(_explore_system(job), budget, control)
    if sink is not None and graph.truncated:
        sink(graph)  # keep the final frontier resumable too
    return {
        "kind": "explore",
        "states": graph.state_count(),
        "transitions": graph.transition_count(),
        "deadlocks": len(graph.deadlocks()),
        "exact": not graph.truncated,
        "violated": False,
        "resumed": resumed,
        "exhaustion": graph.exhaustion.to_json() if graph.exhaustion else None,
        "summary": statistics(graph).describe(),
    }


#: The intruder each zoo property kind is checked against (also the
#: witness recipe vocabulary the replayer rebuilds from).
_ZOO_INTRUDERS = {
    "secrecy": "eavesdropper",
    "authentication": "impersonator",
    "freshness": "replayer",
}


def _property_verdict(job: Job, control: RunControl):
    """Dispatch a secrecy/authentication/freshness job to the right
    analysis: intruder-based for zoo targets (as in the zoo benchmark),
    most-general-attacker for system files (as in ``repro-spi
    analyze``).  Returns the verdict plus the witness-sealing recipe
    describing how the checked system was built."""
    from repro.core.terms import Name
    from repro.semantics.lts import Budget

    budget = Budget(job.max_states, job.max_depth)
    if "zoo" in job.target:
        from repro.analysis.intruder import eavesdropper, impersonator, replayer
        from repro.analysis.properties import authentication, freshness
        from repro.analysis.secrecy import keeps_secret
        from repro.protocols.library import narration_configuration

        spec = _zoo_spec(job)
        config = narration_configuration(
            spec, observed_role="B", observed_datum="PAYLOAD"
        )
        wire = Name(spec.channel)
        recipe = {
            "source": "zoo",
            "protocol": job.target["zoo"],
            "observed_role": "B",
            "observed_datum": "PAYLOAD",
            "intruder": _ZOO_INTRUDERS[job.kind],
        }
        if job.kind == "secrecy":
            recipe["messages"] = 6
            return (
                keeps_secret(
                    config.with_part("E", eavesdropper(wire, messages=6)),
                    job.secret or "KAB",
                    budget=budget,
                    control=control,
                ),
                recipe,
            )
        if job.kind == "authentication":
            return (
                authentication(
                    config.with_part("E", impersonator(wire)),
                    job.sender or "A",
                    budget=budget,
                    control=control,
                ),
                recipe,
            )
        return (
            freshness(
                config.with_part("E", replayer(wire)), budget=budget, control=control
            ),
            recipe,
        )
    if "sysfile" in job.target:
        from repro.analysis.environment import (
            env_authentication,
            env_freshness,
            env_secrecy,
        )
        from repro.syntax.sysfile import load_system_file

        sysfile = load_system_file(job.target["sysfile"])
        config = sysfile.configuration
        recipe = {"source": "sysfile", "path": job.target["sysfile"]}
        if job.kind == "secrecy":
            if not job.secret:
                raise JobError(f"job {job.id!r}: sysfile secrecy needs a secret")
            return (
                env_secrecy(config, job.secret, budget=budget, control=control),
                recipe,
            )
        if job.kind == "authentication":
            return (
                env_authentication(
                    config,
                    job.sender or "A",
                    observe=sysfile.observe.base,
                    budget=budget,
                    control=control,
                ),
                recipe,
            )
        return (
            env_freshness(
                config, observe=sysfile.observe.base, budget=budget, control=control
            ),
            recipe,
        )
    raise JobError(f"job {job.id!r}: {job.kind} needs a zoo or sysfile target")


def _run_property(job: Job, control: RunControl) -> dict:
    verdict, recipe = _property_verdict(job, control)
    detail = getattr(verdict, "violation", None)
    leak = getattr(verdict, "leak", None)
    if detail is None and leak is not None:
        from repro.syntax.pretty import render_term

        detail = f"leaked {render_term(leak)}"
    result = {
        "kind": job.kind,
        "holds": verdict.holds,
        "exact": verdict.exhaustive,
        "violated": not verdict.holds,
        "detail": detail,
        "exhaustion": verdict.exhaustion.to_json() if verdict.exhaustion else None,
        "summary": verdict.describe(),
    }
    witness = getattr(verdict, "witness", None)
    if witness is not None:
        result["witness"] = witness.sealed(recipe).to_json()
    return result


def _run_check(job: Job, control: RunControl) -> dict:
    from repro.analysis.attacks import securely_implements
    from repro.analysis.intruder import standard_attackers
    from repro.semantics.lts import Budget
    from repro.syntax.sysfile import load_system_file

    impl = load_system_file(job.target["impl"])
    spec = load_system_file(job.target["spec"])
    if set(impl.configuration.private) != set(spec.configuration.private):
        raise JobError(f"job {job.id!r}: the two system files declare different channels")
    roles = [label for _, _, label in impl.configuration.subroles]
    roles = roles or list(impl.configuration.labels())
    with governed(control=control):
        verdict = securely_implements(
            impl.configuration,
            spec.configuration,
            standard_attackers(list(impl.configuration.private)),
            observe=impl.observe,
            roles=tuple(roles) + ("E",),
            budget=Budget(job.max_states, job.max_depth),
        )
    result = {
        "kind": "check",
        "secure": verdict.secure,
        "exact": verdict.exhaustive,
        "violated": not verdict.secure,
        "attackers_checked": verdict.attackers_checked,
        "tests_checked": verdict.tests_checked,
        "exhaustion": verdict.exhaustion.to_json() if verdict.exhaustion else None,
        "summary": verdict.describe(),
    }
    attack = verdict.attack
    if attack is not None and attack.witness is not None:
        recipe = {
            "source": "check",
            "impl": job.target["impl"],
            "spec": job.target["spec"],
            "observe": impl.observe.base,
            "roles": list(roles) + ["E"],
            "attacker": attack.attacker_name,
            "test": attack.test.name,
        }
        result["witness"] = attack.witness.sealed(recipe).to_json()
    return result


def run_job(
    job: Job,
    deadline: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
) -> dict:
    """Execute one job in-process; returns a JSON-serializable result.

    ``deadline`` is the cooperative per-job wall-clock limit (expiry
    qualifies the verdict, it does not fail the job).  For ``explore``
    jobs, ``checkpoint_path`` enables periodic autosave *and* resume
    from a previous attempt's autosave.
    """
    import time

    from repro.obs.metrics import Metrics, collecting, current_metrics
    from repro.obs.stats import job_stats_block
    from repro.obs.trace import trace_span

    control = RunControl(
        deadline=Deadline.after(deadline) if deadline is not None else None
    )
    outer = current_metrics()
    started = time.monotonic()
    with collecting(Metrics()) as metrics:
        with trace_span("job", job=job.id, job_kind=job.kind):
            if job.kind == "explore":
                result = _run_explore(job, control, checkpoint_path)
            elif job.kind == "check":
                result = _run_check(job, control)
            else:
                result = _run_property(job, control)
        if certify_enabled() and result.get("violated"):
            from repro.semantics.replay import CertificationError, replay_result

            report = replay_result(result)
            if not report.ok:
                metrics.inc("witness.failed")
                raise CertificationError(
                    f"job {job.id!r}: {report.describe()}"
                )
            metrics.inc("witness.replayed")
            result["certified"] = True
    elapsed = time.monotonic() - started
    stats = job_stats_block(metrics, elapsed)
    # Resumed explorations only metered the *new* work; the graph totals
    # are authoritative when the result carries them.
    if isinstance(result.get("states"), int):
        stats["states"] = result["states"]
        stats["states_per_s"] = (
            round(result["states"] / elapsed, 2) if elapsed > 0 else None
        )
    if isinstance(result.get("transitions"), int):
        stats["transitions"] = result["transitions"]
    result["stats"] = stats
    if outer is not None:
        outer.absorb(metrics)
    return result


# ----------------------------------------------------------------------
# Worker process entry point
# ----------------------------------------------------------------------


def worker_main(conn, worker_id: int, heartbeat_interval: float = 0.25) -> None:
    """Long-lived pool worker: serve job messages until shutdown/EOF.

    Protocol (dicts over the pipe):

    * in  — ``{"type": "job", "job": <Job.to_json>, "attempt": n,
      "deadline": s|None, "checkpoint": path|None,
      "fault_plan": <FaultPlan.to_json>|None}`` or ``{"type": "shutdown"}``;
    * out — ``{"type": "started"|"heartbeat"|"result"|"error", ...}``;
      an ``error`` frame carries ``error_type``, the exception's class
      name, which the supervisor classifies failures by.

    Heartbeats come from a daemon thread, so they prove *process*
    liveness (spawned, importing, computing) independently of job
    progress.  Any failure of a job — a malformed description included —
    is reported as an ``error`` message and the worker lives on; only
    shutdown, pipe EOF, or a hard crash (signal, OOM kill, injected
    ``exit_at``) end the process.
    """
    import signal

    try:
        # The supervisor owns orderly shutdown; a Ctrl-C aimed at it
        # must not also detonate inside every worker.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    send_lock = threading.Lock()

    def send(message: dict) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                # The supervisor is gone; there is nobody to serve.
                os._exit(0)

    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            send({"type": "heartbeat", "worker": worker_id})

    threading.Thread(target=beat, daemon=True, name="heartbeat").start()

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, dict) or message.get("type") == "shutdown":
                break
            attempt = int(message.get("attempt", 1))
            raw = message.get("job")
            job_id = raw.get("id") if isinstance(raw, dict) else None
            send({
                "type": "started", "worker": worker_id, "job": job_id,
                "attempt": attempt,
            })
            plan = message.get("fault_plan")
            harness = inject_faults(FaultPlan.from_json(plan)) if plan else nullcontext()
            try:
                job = Job.from_json(raw)
                with harness:
                    result = run_job(
                        job,
                        deadline=message.get("deadline"),
                        checkpoint_path=message.get("checkpoint"),
                    )
                send({
                    "type": "result",
                    "worker": worker_id,
                    "job": job_id,
                    "attempt": attempt,
                    "result": result,
                })
            except Exception as err:
                send({
                    "type": "error",
                    "worker": worker_id,
                    "job": job_id,
                    "attempt": attempt,
                    "error": f"{type(err).__name__}: {err}",
                    "error_type": type(err).__name__,
                    "traceback": traceback.format_exc(limit=8),
                })
    except KeyboardInterrupt:  # pragma: no cover - race with SIG_IGN
        pass
    finally:
        stop.set()
