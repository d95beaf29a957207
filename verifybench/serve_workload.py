"""The serve-mixed workload: a closed loop of two clients against an
in-process :class:`~repro.service.server.Server`.

The server listens on a unix socket with two workers, certification on
(``REPRO_CERTIFY=1``) and a fresh verdict store per set-up.  Set-up
binds the server, spawns the workers, sends one warm-up request per
worker and pre-warms the store with the keys the timed phase will hit.
Each client then sends its share of the timed requests, one at a time.

Whatever happens, :func:`served` drains the server, which shuts the
worker pool down; the caller stops the resource tracker before exit.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from verifybench import answers, spans, stats
from verifybench.inputs import CLIENTS, Request, ServePlan

WORKERS = 2
#: Timed requests per second of ``--seconds``: 100 requests, the least
#: with ten samples beyond the 90th percentile, at the default 25 s.
REQUESTS_PER_SECOND = 4


class SetupError(RuntimeError):
    """A warm-up or pre-warm request failed: nothing can be timed."""


@dataclass(frozen=True)
class Sample:
    request: Request
    latency: float
    reply: dict
    problem: Optional[str]

    @property
    def result(self) -> dict:
        return self.reply.get("result") or {}

    @property
    def cached(self) -> bool:
        return bool(self.reply.get("cached"))

    @property
    def compute(self) -> Optional[float]:
        """Worker compute seconds of a computed reply (``stats.elapsed``)."""
        if self.cached:
            return None
        return (self.result.get("stats") or {}).get("elapsed")


@dataclass(frozen=True)
class Served:
    server: object
    socket_path: str
    setup_s: float


def _client_loop(socket_path: str, root: str, requests: Sequence[Request], phase: str,
                 out: list, stop: threading.Event) -> None:
    from repro.service.client import ServiceClient

    client = ServiceClient(socket_path, timeout=300.0, retries=0)
    for index, request in enumerate(requests):
        if stop.is_set():
            return
        started = time.perf_counter()
        try:
            reply = client.submit(
                request.kind,
                request.target(root),
                id=f"{phase}-{threading.current_thread().name}-{index}",
                max_states=request.max_states,
                max_depth=request.max_depth,
                secret=request.secret,
            )
        except Exception as err:  # a raised call is a failed operation
            reply = {"status": "exception", "error": f"{type(err).__name__}: {err}"}
        latency = time.perf_counter() - started
        out.append(Sample(request, latency, reply, answers.check_reply(request.entry, reply)))


def drive(socket_path: str, root: str, lists: Sequence[Sequence[Request]],
          phase: str) -> tuple[list[Sample], float]:
    """One closed-loop client thread per list; returns every sample and
    the wall time until the last client finished."""
    stop = threading.Event()
    outs: list[list[Sample]] = [[] for _ in lists]
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(socket_path, root, requests, phase, out, stop),
            name=f"c{index}",
            daemon=True,
        )
        for index, (requests, out) in enumerate(zip(lists, outs))
    ]
    started = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive():
                thread.join(0.2)
    finally:
        stop.set()
    wall = time.perf_counter() - started
    return [sample for out in outs for sample in out], wall


def _halves(requests: Sequence[Request]) -> list[list[Request]]:
    return [list(requests[i::CLIENTS]) for i in range(CLIENTS)]


@contextmanager
def served(root: str, plan: ServePlan, workdir: str) -> Iterator[Served]:
    """A set-up server, drained on exit; ``setup_s`` times everything from
    construction to the end of the pre-warm."""
    from repro.service.server import Server, ServerConfig

    os.makedirs(workdir)
    # Unix socket paths are short: name it relative to the working directory.
    socket_path = os.path.relpath(os.path.join(workdir, "s.sock"))
    started = time.perf_counter()
    server = Server(ServerConfig(
        socket_path=socket_path,
        workers=WORKERS,
        verdict_store=os.path.join(workdir, "store"),
        drain_grace=2.0,
    ))
    thread = threading.Thread(target=server.serve_forever, name="server", daemon=True)
    try:
        server.bind()
        thread.start()
        for phase, requests in (("warmup", plan.warmup), ("prewarm", plan.prewarm)):
            samples, _ = drive(socket_path, root, _halves(requests), phase)
            problems = [s.problem for s in samples if s.problem is not None]
            if problems:
                raise SetupError(f"{phase}: {problems[0]}")
        yield Served(server, socket_path, time.perf_counter() - started)
    finally:
        server.request_drain()
        if thread.ident is not None:
            thread.join(timeout=60)
        if thread.ident is None or thread.is_alive():
            # The serve loop never ran or is stuck: stop the pool here.
            server.pool.shutdown()
        shutil.rmtree(workdir, ignore_errors=True)


def request_count(seconds: float) -> int:
    return max(1, round(seconds * REQUESTS_PER_SECOND))


@dataclass
class Run:
    samples: list[Sample]
    wall: float
    setup_samples: list[float]
    store_counts: tuple[int, int]  # (hits, misses) during the timed phase


def _store_counts(server) -> tuple[int, int]:
    counters = server.metrics.to_json()["counters"]
    return counters.get("store.hit", 0), counters.get("store.miss", 0)


def timed_run(root: str, plan: ServePlan, workdir: str, setups: int = 1,
              recorder: Optional[spans.Recorder] = None) -> Run:
    """``setups - 1`` set-ups timed and torn down, then one more whose
    server runs the timed phase (with the serving layers wrapped when a
    recorder is given)."""
    setup_samples = []
    for index in range(setups - 1):
        with served(root, plan, os.path.join(workdir, f"setup-{index}")) as service:
            setup_samples.append(service.setup_s)
    with served(root, plan, os.path.join(workdir, "timed")) as service:
        setup_samples.append(service.setup_s)
        print(f"verifybench: timed phase, {len(plan.timed)} requests",
              file=sys.stderr, flush=True)
        before = _store_counts(service.server)
        if recorder is None:
            samples, wall = drive(service.socket_path, root, plan.clients, "timed")
        else:
            with recorder.installed(spans.SERVING):
                samples, wall = drive(service.socket_path, root, plan.clients, "timed")
        after = _store_counts(service.server)
    return Run(samples, wall, setup_samples,
               (after[0] - before[0], after[1] - before[1]))


def end_to_end(run: Run) -> dict:
    latencies = [sample.latency for sample in run.samples]
    peaks = [
        (sample.result.get("stats") or {}).get("peak_rss_mb") or 0.0
        for sample in run.samples
    ]
    return {
        "jobs_per_s": len(run.samples) / run.wall,
        "verdict_s.p50": stats.median(latencies),
        "verdict_s.p90": stats.nearest_rank(latencies, 0.9),
        "peak_rss_mb": max(peaks),
    }


def _p50(values: Sequence[float]) -> float:
    return stats.median(values).value if values else 0.0


def serving_layers(run: Run) -> dict:
    """Per-layer metrics read from the replies of an untraced run."""
    computed = [s for s in run.samples if s.compute is not None]
    compute = [s.compute for s in computed]
    overhead = [s.latency - s.compute for s in computed]
    hits = [s.latency for s in run.samples if s.cached]
    store_hits, store_misses = run.store_counts
    return {
        "runtime.worker.compute_s.p50": _p50(compute),
        "service.overhead_s.p50": _p50(overhead),
        "service.overhead_s.p90": (
            stats.nearest_rank(overhead, 0.9).value if overhead else 0.0
        ),
        "runtime.supervisor.busy_ratio": sum(compute) / (WORKERS * run.wall),
        "service.store.hit_ratio": stats.ratio(store_hits, store_hits + store_misses),
        "service.store.hit_s.p50": _p50(hits),
    }


def worker_side(root: str, requests: Sequence[Request],
                recorder: spans.Recorder) -> tuple[dict, list[str]]:
    """Run the computed requests through ``run_job`` in-process with the
    exploration and verdict layers wrapped.  Returns the per-layer
    metrics and the known-answer problems."""
    from repro.runtime.worker import Job, run_job
    from repro.semantics import canonical

    from verifybench.explore_workload import counted, exploration_layers

    problems: list[str] = []
    attackers = tests = interned = 0
    with counted() as counts, recorder.installed(spans.EXPLORATION + spans.VERDICTS):
        for index, request in enumerate(requests):
            job = Job(
                id=f"inprocess-{index}",
                kind=request.kind,
                target=request.target(root),
                max_states=request.max_states,
                max_depth=request.max_depth,
                secret=request.secret,
            )
            try:
                result = run_job(job)
            except Exception as err:  # a raised job is a failed operation
                problems.append(f"{request.entry.label}: {type(err).__name__}: {err}")
                continue
            if "cancelled" in ((result.get("exhaustion") or {}).get("reasons") or ()):
                raise KeyboardInterrupt  # the engine absorbed an interrupt
            problem = answers.check_result(request.entry, result)
            if problem is not None:
                problems.append(problem)
            attackers += result.get("attackers_checked", 0)
            tests += result.get("tests_checked", 0)
            interned = max(interned, canonical.interned_size())

    recorded = recorder.spans
    own = stats.self_times(recorded)
    explore_s = sum(
        span.end - span.start for span in recorded if span.name == "semantics.lts.explore"
    )
    layer = exploration_layers(recorded, counts, 1)
    layer.update({
        "semantics.canonical.interned_nodes": interned,
        "semantics.lts.states_per_s": stats.ratio(counts["states"], explore_s),
        "analysis.environment.env_explore.self_s":
            own.get("analysis.environment.env_explore", 0.0),
        "analysis.attacks.securely_implements.self_s":
            own.get("analysis.attacks.securely_implements", 0.0),
        "equivalence.testing.passes_result.self_s":
            own.get("equivalence.testing.passes_result", 0.0),
        "analysis.attackers_checked": attackers,
        "equivalence.tests_checked": tests,
        "semantics.replay.replay_result.self_s":
            own.get("semantics.replay.replay_result", 0.0),
        "semantics.replay.replay_result.calls":
            stats.call_counts(recorded).get("semantics.replay.replay_result", 0),
    })
    return layer, problems


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, which otherwise outlives
    the worker pool until this process exits."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    # Only the process that launched the tracker knows its pid.
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
