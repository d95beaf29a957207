"""Span recording around calls into the layers of ``repro``.

A :class:`Recorder` replaces a layer's public function with a wrapper
*where the caller looks the name up* (a module global or a class
attribute), records one :class:`~verifybench.stats.Span` per call, and
puts the original back on exit.  Spans stay in memory until
:meth:`Recorder.write`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from verifybench.stats import Span

#: ``(module, attribute, span name)``: the attribute may be dotted
#: (``Class.method``) and is patched on the object that owns its last part.
Target = tuple[str, str, str]

# Exploration layers, patched in the modules that call them.
EXPLORATION: tuple[Target, ...] = (
    ("repro.semantics.transitions", "freshen_bound", "core.substitution"),
    ("repro.semantics.transitions", "instantiate_locvar", "core.substitution"),
    ("repro.analysis.environment", "instantiate_locvar", "core.substitution"),
    ("repro.semantics.reduction", "batched_successors",
     "semantics.transitions.batched_successors"),
    ("repro.semantics.transitions", "normalize", "semantics.normalize"),
    ("repro.analysis.environment", "normalize", "semantics.normalize"),
    ("repro.semantics.canonical", "intern_process", "semantics.canonical.intern_process"),
    ("repro.semantics.system", "state_key", "semantics.canonical.state_key"),
    ("repro.semantics.reduction", "reduced_successors",
     "semantics.reduction.reduced_successors"),
)

# Verdict layers, as the worker's job runner reaches them.
VERDICTS: tuple[Target, ...] = (
    ("repro.analysis.properties", "explore", "semantics.lts.explore"),
    ("repro.analysis.secrecy", "explore", "semantics.lts.explore"),
    ("repro.analysis.environment", "env_explore", "analysis.environment.env_explore"),
    ("repro.analysis.attacks", "securely_implements",
     "analysis.attacks.securely_implements"),
    ("repro.analysis.attacks", "passes_result", "equivalence.testing.passes_result"),
    ("repro.semantics.replay", "replay_result", "semantics.replay.replay_result"),
)

# Serving layers that run in the benchmark process: client, admission,
# store and the worker pool's dispatch side.
SERVING: tuple[Target, ...] = (
    ("repro.service.client", "ServiceClient.submit", "service.client.submit"),
    ("repro.service.admission", "AdmissionQueue.offer", "service.server.admission"),
    ("repro.service.admission", "AdmissionQueue.take", "service.server.admission"),
    ("repro.service.store", "VerdictStore.lookup", "service.store.lookup"),
    ("repro.service.store", "VerdictStore.put", "service.store.put"),
    ("repro.runtime.supervisor", "WorkerPool.dispatch", "runtime.supervisor.dispatch"),
    ("repro.runtime.supervisor", "WorkerPool.poll", "runtime.supervisor.poll"),
)


class Recorder:
    """Collects spans from any number of threads; parents are tracked per
    thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(span_id, parent, name, start, end))

        return traced

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Recorder"]:
        """Install a wrapper at every target; restore the originals on exit."""
        originals: list[tuple[object, str, object]] = []
        try:
            for module_name, attribute, name in targets:
                owner: object = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                originals.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(originals):
                setattr(owner, leaf, original)

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), separators=(",", ":")))
                handle.write("\n")
