"""The explore workloads: one cold ``explore`` at a time, one caller.

``explore-budget`` explores the four replicated zoo protocols at
``Budget(480, 14)``; every exploration must stop on ``states`` at exactly
480 states.  ``explore-horizon`` explores them to depth 5 under a state
budget that never binds; every exploration must stop on ``depth``.
Caches are cleared, and garbage collected, before each exploration.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from verifybench import answers, spans, stats
from verifybench.inputs import ZOO_PROTOCOLS, explore_orders


@dataclass(frozen=True)
class Shape:
    max_states: int
    max_depth: int
    reason: str  # the one exhaustion reason every exploration must end on
    states: Optional[int]  # the exact state count required, if any


SHAPES = {
    "explore-budget": Shape(480, 14, "states", 480),
    "explore-horizon": Shape(100_000, 5, "depth", None),
}


def build_systems() -> dict:
    """The replicated zoo systems, as ``suite`` and ``serve`` build them."""
    from repro.equivalence.testing import compose
    from repro.protocols.library import narration_configuration
    from repro.protocols.zoo import ZOO

    return {
        name: compose(
            narration_configuration(
                ZOO[name](replicate=True), observed_role="B", observed_datum="PAYLOAD"
            )
        )
        for name in ZOO_PROTOCOLS
    }


def set_up() -> dict:
    """Imports, the systems, and one tiny exploration so that lazy
    imports are paid before timing."""
    from repro.semantics import canonical
    from repro.semantics.lts import Budget, explore

    systems = build_systems()
    explore(systems[ZOO_PROTOCOLS[0]], Budget(8, 2))
    canonical.clear_caches()
    return systems


@dataclass
class Pass:
    """What one timed run of explorations did."""

    orders: list[tuple[str, ...]]
    times: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall: float = 0.0
    states: int = 0
    interned_max: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)


def explore_pass(
    systems: dict,
    shape: Shape,
    orders: Iterable[tuple[str, ...]],
    more: Callable[[Pass], bool] = lambda _: True,
    recorder: Optional[spans.Recorder] = None,
) -> Pass:
    """Explore pass after pass from ``orders`` while ``more`` says so.
    With a recorder, each ``explore`` call is a span."""
    from repro.semantics import canonical
    from repro.semantics.lts import Budget, explore

    budget = Budget(shape.max_states, shape.max_depth)
    result = Pass(orders=[])
    started = time.perf_counter()
    for order in orders:
        for name in order:
            canonical.clear_caches()
            gc.collect()  # each exploration starts from the same, clean heap
            begun = time.perf_counter()
            try:
                if recorder is None:
                    graph = explore(systems[name], budget)
                else:
                    with recorder.span("semantics.lts.explore"):
                        graph = explore(systems[name], budget)
            except Exception as err:  # a crash is a failed operation
                result.times.append(time.perf_counter() - begun)
                result.failures.append(f"{name}: {type(err).__name__}: {err}")
                continue
            result.times.append(time.perf_counter() - begun)
            if graph.exhaustion and "cancelled" in graph.exhaustion.reasons:
                raise KeyboardInterrupt  # the engine absorbed an interrupt
            problem = answers.check_exploration(graph, shape.reason, shape.states)
            if problem is not None:
                result.failures.append(f"{name}: {problem}")
            result.states += graph.state_count()
            result.interned_max = max(result.interned_max, canonical.interned_size())
        result.orders.append(order)
        result.wall = time.perf_counter() - started
        if not more(result):
            break
    return result


def timed_passes(systems: dict, shape: Shape, seed: int, seconds: float) -> Pass:
    """Whole passes until ``seconds`` have gone by."""
    return explore_pass(
        systems, shape, explore_orders(seed), lambda done: done.wall < seconds
    )


def end_to_end(result: Pass) -> dict:
    p90 = stats.nearest_rank(result.times, 0.9)
    return {
        "jobs_per_s": result.attempted / result.wall,
        "verdict_s.p50": stats.median(result.times),
        "verdict_s.p90": p90,
    }


@contextmanager
def counted() -> Iterator[dict]:
    """Counts the exploration layers publish during the enclosed block:
    canonical-key hits and misses, ample hits, symmetry merges, states
    recorded and successors deduplicated."""
    from repro.obs.metrics import Metrics, collecting
    from repro.semantics import canonical, reduction

    counts: dict = {}
    cache_before = canonical.metrics_snapshot()
    reduction_before = reduction.metrics_snapshot()
    with collecting(Metrics()) as metrics:
        yield counts
    cache_after = canonical.metrics_snapshot()
    reduction_after = reduction.metrics_snapshot()
    counters = metrics.to_json()["counters"]
    counts.update(
        key_hits=cache_after[0] - cache_before[0],
        key_misses=cache_after[1] - cache_before[1],
        ample_hits=reduction_after[0] - reduction_before[0],
        sym_merges=reduction_after[1] - reduction_before[1],
        states=counters.get("explore.states", 0),
        dedup_hits=counters.get("explore.dedup_hits", 0),
    )


def per_layer(systems: dict, shape: Shape, baseline: Pass, out_path: str) -> tuple[dict, Pass]:
    """Replay ``baseline``'s explorations with every exploration layer
    wrapped; returns the per-layer metrics (per pass) and the traced pass."""
    recorder = spans.Recorder()
    with counted() as counts, recorder.installed(spans.EXPLORATION):
        traced = explore_pass(systems, shape, baseline.orders, recorder=recorder)
    recorder.write(out_path)
    layer = exploration_layers(recorder.spans, counts, len(traced.orders))
    layer["semantics.canonical.interned_nodes"] = traced.interned_max
    layer["semantics.lts.states_per_s"] = baseline.states / sum(baseline.times)
    layer["trace.overhead_ratio"] = traced.wall / baseline.wall
    return layer, traced


def exploration_layers(recorded: Sequence[stats.Span], counts: dict, passes: int) -> dict:
    """The exploration layers' self times, calls and ratios, per pass."""
    own = stats.self_times(recorded)
    calls = stats.call_counts(recorded)
    state_key_calls = calls.get("semantics.canonical.state_key", 0)
    state_key_s = own.get("semantics.canonical.state_key", 0.0)
    key_lookups = counts["key_hits"] + counts["key_misses"]
    generated = counts["dedup_hits"] + counts["states"]
    return {
        "core.substitution.self_s": own.get("core.substitution", 0.0) / passes,
        "semantics.transitions.batched_successors.self_s":
            own.get("semantics.transitions.batched_successors", 0.0) / passes,
        "semantics.transitions.batched_successors.calls":
            calls.get("semantics.transitions.batched_successors", 0) / passes,
        "semantics.normalize.self_s": own.get("semantics.normalize", 0.0) / passes,
        "semantics.canonical.intern_process.self_s":
            own.get("semantics.canonical.intern_process", 0.0) / passes,
        "semantics.canonical.state_key.self_s": state_key_s / passes,
        "semantics.canonical.state_key.us_per_call":
            stats.ratio(state_key_s * 1e6, state_key_calls),
        "semantics.canonical.key_hit_ratio": stats.ratio(counts["key_hits"], key_lookups),
        "semantics.reduction.reduced_successors.self_s":
            own.get("semantics.reduction.reduced_successors", 0.0) / passes,
        "semantics.reduction.ample_ratio": stats.ratio(
            counts["ample_hits"], calls.get("semantics.reduction.reduced_successors", 0)
        ),
        "semantics.reduction.sym_merges": counts["sym_merges"] / passes,
        "semantics.lts.explore.self_s": own.get("semantics.lts.explore", 0.0) / passes,
        "semantics.lts.states": counts["states"] / passes,
        "semantics.lts.dedup_ratio": stats.ratio(counts["dedup_hits"], generated),
    }
