"""Seeded workload inputs.

Everything here is a pure function of the seed (and of the request
count): the same seed yields the same protocol order, request stream,
budgets and pre-warm set.  ``repro`` only ever receives these inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

#: The four replicated zoo protocols both explore workloads walk.
ZOO_PROTOCOLS = ("needham-schroeder-sk", "otway-rees", "woo-lam", "yahalom")
PROPERTIES = ("secrecy", "authentication", "freshness")
SYSTEMS_DIR = "examples/systems"

#: Budgets a serve request may carry: small sets around 480 states /
#: depth 14, so that store keys stay distinct.  The expensive entries
#: stop on their state budget, so their cost follows it; their set is
#: narrow and at one depth, so that the seed barely moves their cost.
BUDGETS = tuple(
    (states, depth) for states in range(470, 491, 2) for depth in (13, 14, 15)
)
EXPENSIVE_BUDGETS = tuple((states, 14) for states in range(474, 487))

#: Shares of a serve run's timed requests: store hits (keys stored during
#: set-up) and the expensive pm2/pm3 property checks.  The rest are cheap
#: misses.  Hits stay below one half so that the median latency falls
#: inside the cheap misses, not on the hit/miss boundary; the expensive
#: share puts the 90th percentile inside the pm2 requests, not on their
#: lower edge.
HIT_SHARE = 0.40
EXPENSIVE_SHARE = 0.18
#: Closed-loop clients of a serve run, as many as the server has workers.
CLIENTS = 2


def explore_orders(seed: int) -> Iterator[tuple[str, ...]]:
    """An endless sequence of passes, each a seeded order of the four
    protocols."""
    rng = random.Random(f"explore-{seed}")
    while True:
        order = list(ZOO_PROTOCOLS)
        rng.shuffle(order)
        yield tuple(order)


@dataclass(frozen=True)
class Entry:
    """One catalogue entry: what to verify, without a budget."""

    kind: str
    system: str  # a zoo protocol name, or a system file stem such as "pm2"

    @property
    def is_zoo(self) -> bool:
        return self.system in ZOO_PROTOCOLS

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.system}"


#: The cheap part of the catalogue: the single-session zoo, the
#: single-session system files, and both Definition-4 checks.
CHEAP = (
    tuple(Entry(kind, name) for name in ZOO_PROTOCOLS for kind in PROPERTIES)
    + tuple(Entry(kind, system) for system in ("p1", "p2") for kind in PROPERTIES)
    + (Entry("check", "p1"), Entry("check", "p2"))
)
#: The replicated system files, seconds per request, pm2 (about 2 s)
#: twice as often as pm3 (about 4 s).  ``check`` of pm2 and pm3 is left
#: out: one such request would be a whole run's tail.
EXPENSIVE = tuple(Entry(kind, system) for system in ("pm2", "pm3") for kind in PROPERTIES)
_EXPENSIVE_CYCLE = tuple(
    Entry(kind, system)
    for kind, system in (
        ("secrecy", "pm2"), ("secrecy", "pm3"), ("authentication", "pm2"),
        ("freshness", "pm2"), ("authentication", "pm3"), ("secrecy", "pm2"),
        ("authentication", "pm2"), ("freshness", "pm3"), ("freshness", "pm2"),
    )
)
#: The entry that warms each worker up during set-up.
WARMUP = Entry("check", "p2")


@dataclass(frozen=True)
class Request:
    """One serve request with its budget."""

    entry: Entry
    max_states: int
    max_depth: int

    @property
    def kind(self) -> str:
        return self.entry.kind

    def target(self, root: str) -> dict:
        """The request target, with system files under ``root``."""
        system = self.entry.system
        if self.entry.is_zoo:
            return {"zoo": system}
        impl = f"{root}/{SYSTEMS_DIR}/{system}_impl.spi"
        if self.kind == "check":
            return {"impl": impl, "spec": f"{root}/{SYSTEMS_DIR}/p_spec.spi"}
        return {"sysfile": impl}

    @property
    def secret(self) -> Optional[str]:
        """System-file secrecy names its secret; the zoo defaults to KAB."""
        if self.kind == "secrecy" and not self.entry.is_zoo:
            return "M"
        return None


@dataclass(frozen=True)
class ServePlan:
    """Everything a serve run sends, split by phase and client."""

    warmup: tuple[Request, ...]
    prewarm: tuple[Request, ...]
    clients: tuple[tuple[Request, ...], ...]

    @property
    def timed(self) -> tuple[Request, ...]:
        return tuple(request for client in self.clients for request in client)


def _counts(entries: tuple[Entry, ...], total: int) -> list[tuple[Entry, int]]:
    """Spread ``total`` requests over ``entries`` as evenly as possible, the
    remainder going to the first entries (a fixed composition)."""
    base, extra = divmod(total, len(entries))
    return [(entry, base + (1 if i < extra else 0)) for i, entry in enumerate(entries)]


def serve_plan(seed: int, requests: int) -> ServePlan:
    """The serve-mixed inputs for ``requests`` timed requests.

    The composition depends on ``requests`` alone: ``HIT_SHARE`` of them
    name keys stored during set-up, ``EXPENSIVE_SHARE`` are pm2/pm3
    property checks, the rest are cheap misses.  The seed draws each
    request's budget (distinct per entry, so no key repeats) and the
    order of the cheap requests.
    """
    if requests < 1:
        raise ValueError("a serve run needs at least one request")
    rng = random.Random(f"serve-{seed}")
    hits = round(requests * HIT_SHARE)
    expensive = round(requests * EXPENSIVE_SHARE)
    cheap = requests - hits - expensive

    warm = CLIENTS  # one warm-up request per worker, one client each
    hit_counts = dict(_counts(CHEAP, hits))
    miss_counts = dict(_counts(CHEAP, cheap))
    wanted: dict[Entry, int] = {
        entry: hit_counts[entry] + miss_counts[entry] + (warm if entry == WARMUP else 0)
        for entry in CHEAP
    }
    heavy_counts = dict.fromkeys(EXPENSIVE, 0)
    for entry, count in _counts(_EXPENSIVE_CYCLE, expensive):
        heavy_counts[entry] += count
    wanted.update(heavy_counts)
    budgets: dict[Entry, list[tuple[int, int]]] = {}
    for entry, count in wanted.items():
        choices = EXPENSIVE_BUDGETS if entry in heavy_counts else BUDGETS
        if count > len(choices):
            raise ValueError(f"{count} requests for {entry.label} exceed the budget set")
        budgets[entry] = rng.sample(choices, count)

    def take(entry: Entry) -> Request:
        states, depth = budgets[entry].pop()
        return Request(entry, states, depth)

    warmup = tuple(take(WARMUP) for _ in range(warm))
    prewarm = tuple(
        take(entry) for entry, count in hit_counts.items() for _ in range(count)
    )
    miss_requests = [
        take(entry) for entry, count in miss_counts.items() for _ in range(count)
    ]
    heavy_requests = [
        take(entry) for entry, count in heavy_counts.items() for _ in range(count)
    ]
    # Deal each group out in turn, so every client gets the same mix
    # (each expensive entry comes an even number of times per hundred
    # requests).  The first client's cheap requests come in seeded order,
    # its expensive ones evenly spaced in a fixed cyclic order: a worker's
    # caches outlive a job, so the order of expensive jobs sets their
    # cost, and it must not change with the seed.  The other clients
    # follow the first step by step (the same expensive entry, a cheap
    # miss or a hit), so that concurrent requests cost alike and both
    # workers carry the same load.
    groups = (
        [(request.entry, request) for request in heavy_requests],
        [("miss", request) for request in miss_requests],
        [("hit", request) for request in prewarm],
    )
    split: list[list[tuple[object, Request]]] = [[] for _ in range(CLIENTS)]
    turn = 0
    for group in groups:
        for tagged in group:
            split[turn % CLIENTS].append(tagged)
            turn += 1
    light = [tagged for tagged in split[0] if tagged[0] not in heavy_counts]
    rng.shuffle(light)
    heavy = _cyclic([tagged for tagged in split[0] if tagged[0] in heavy_counts])
    leader = list(light)
    for index, tagged in enumerate(heavy):
        leader.insert((2 * index + 1) * (len(light) + len(heavy)) // (2 * len(heavy)), tagged)
    return ServePlan(
        warmup,
        prewarm,
        tuple(_follow(leader, client) for client in split),
    )


def _cyclic(tagged: list) -> list:
    """Expensive requests in the repeating order of ``_EXPENSIVE_CYCLE``."""
    queues: dict[object, list] = {}
    for item in tagged:
        queues.setdefault(item[0], []).append(item)
    ordered: list = []
    while len(ordered) < len(tagged):
        for entry in _EXPENSIVE_CYCLE:
            if queues.get(entry):
                ordered.append(queues[entry].pop(0))
    return ordered


def _follow(leader: list, tagged: list) -> tuple[Request, ...]:
    """``tagged`` requests in the order of ``leader``'s tags, leftovers last."""
    queues: dict[object, list[Request]] = {}
    for tag, request in tagged:
        queues.setdefault(tag, []).append(request)
    ordered = [queues[tag].pop(0) for tag, _ in leader if queues.get(tag)]
    return tuple(ordered + [request for queue in queues.values() for request in queue])
