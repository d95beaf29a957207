"""Stable fresh identities under the state cache.

With the cache on, :mod:`repro.semantics.transitions` memoizes each
leaf's commitments per (interned leaf, location) and each
synchronization per pair of pending actions, so the uids a replication
unfold mints are a function of where it unfolds.  These tests pin:

* the property the speedup rests on — the two sides of an interleaving
  diamond rebuild the *same* interned root, while the uncached
  reference semantics rebuilds alpha-variants;
* the soundness argument — along every recorded edge the names a step
  creates are new to its source, and no ``(base, uid)`` has two
  creators within one state;
* verdict parity on *replicated* systems, where unfolding mints names
  and union-over-branches secrecy sees cross-branch name identity
  (the unreplicated parity suite in ``test_canonical_parity.py`` mints
  no names on unfold).
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.analysis.environment import env_authentication, env_freshness
from repro.analysis.intruder import eavesdropper, impersonator, replayer
from repro.analysis.properties import authentication, freshness
from repro.analysis.secrecy import keeps_secret
from repro.core.processes import Restriction, term_parts, walk
from repro.core.terms import Name, names_of
from repro.equivalence.testing import compose
from repro.protocols.library import narration_configuration
from repro.protocols.zoo import ZOO
from repro.semantics import canonical, reduction
from repro.semantics.lts import Budget, explore
from repro.semantics.transitions import batched_successors, successors

from tests.conftest import impl_crypto_multi

ZOO_NAMES = sorted(ZOO)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts with an enabled, empty cache and leaves it so."""
    canonical.set_cache_enabled(True)
    canonical.clear_caches()
    yield
    canonical.set_cache_enabled(True)
    canonical.clear_caches()


def replicated_config(name: str):
    return narration_configuration(
        ZOO[name](replicate=True), observed_role="B", observed_datum="PAYLOAD"
    )


def replicated_system(name: str):
    return compose(replicated_config(name))


def state_names(system) -> set[Name]:
    """Every name occurring in a state: in its tree (restriction binders
    of templates included) and in its private set."""
    found = set(system.private)
    for node in walk(system.root):
        if isinstance(node, Restriction):
            found.add(node.name)
        for term in term_parts(node):
            found |= names_of(term)
    return found


# ----------------------------------------------------------------------
# Diamond identity
# ----------------------------------------------------------------------


def _signature(transition) -> tuple:
    action = transition.action
    return (action.channel, action.sender, action.receiver)


def _follow(state, signature: tuple):
    """The successor of ``state`` by the step with ``signature`` (locations
    never move, so a step keeps its signature across independent steps)."""
    (step,) = [t for t in successors(state) if _signature(t) == signature]
    return step.target


def _independent_unfolding_pair(system):
    """Two independent steps, one of which unfolds a replication, from
    the first state (breadth first) that offers such a pair."""
    queue = deque([system])
    seen = {system.canonical_key()}
    while queue:
        state = queue.popleft()
        batch = batched_successors(state)
        steps = list(zip(batch.transitions, batch.infos))
        for i, (a, info_a) in enumerate(steps):
            for b, info_b in steps[i + 1:]:
                if reduction.independent(info_a, info_b) and (
                    info_a.unfolds or info_b.unfolds
                ):
                    return a, b
        for step in batch.transitions:
            key = step.target.canonical_key()
            if key not in seen:
                seen.add(key)
                queue.append(step.target)
    raise AssertionError("no independent unfolding pair found")


def _diamond(name: str):
    a, b = _independent_unfolding_pair(replicated_system(name))
    ab = _follow(a.target, _signature(b))
    ba = _follow(b.target, _signature(a))
    return ab, ba


class TestDiamondIdentity:
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_cached_interleavings_meet_in_one_interned_root(self, name):
        ab, ba = _diamond(name)
        assert canonical.intern_process(ab.root) is canonical.intern_process(ba.root)
        assert ab.private == ba.private
        assert ab.canonical_key() == ba.canonical_key()

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_uncached_interleavings_are_alpha_variants(self, name):
        canonical.set_cache_enabled(False)
        ab, ba = _diamond(name)
        assert ab.canonical_key() == ba.canonical_key()
        assert ab.root is not ba.root
        # The unfold re-freshened on each side: equal up to uids only.
        assert ab.root != ba.root


# ----------------------------------------------------------------------
# Freshness invariant
# ----------------------------------------------------------------------


class TestFreshnessInvariant:
    @pytest.mark.parametrize("mode", ["none", "full"])
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_created_names_are_new_and_single_creator(self, name, mode):
        previous = reduction.set_reduction_mode(mode)
        try:
            graph = explore(replicated_system(name), Budget(160, 12))
        finally:
            reduction.set_reduction_mode(previous)
        assert graph.exhaustion is not None  # replicated spaces are infinite
        checked = 0
        for key, out in graph.edges.items():
            source = graph.states[key]
            before = state_names(source)
            for transition, _target_key in out:
                target = transition.target
                created = target.private - source.private
                assert not created & before, (
                    f"{name}: a step re-created names of its source: "
                    f"{sorted(n.render() for n in created & before)}"
                )
                creators: dict[tuple, set] = {}
                for n in state_names(target):
                    if n.uid is not None:
                        creators.setdefault((n.base, n.uid), set()).add(n.creator)
                clashes = {k: v for k, v in creators.items() if len(v) > 1}
                assert not clashes, f"{name}: one uid, two creators: {clashes}"
                checked += 1
        assert checked > 0


# ----------------------------------------------------------------------
# Verdict parity on replicated systems
# ----------------------------------------------------------------------


def _replicated_verdicts(name: str, budget: Budget) -> tuple:
    config = replicated_config(name)
    wire = Name(ZOO[name](replicate=True).channel)
    spied = config.with_part("E", eavesdropper(wire, messages=6))
    secrecy = tuple(
        (verdict.holds, verdict.exhaustive, verdict.heard)
        for verdict in (
            keeps_secret(spied, secret, budget=budget) for secret in ("KAB", "PAYLOAD")
        )
    )
    auth = authentication(config.with_part("E", impersonator(wire)), "A", budget=budget)
    fresh = freshness(config.with_part("E", replayer(wire)), budget=budget)
    return secrecy + tuple(
        (verdict.holds, verdict.exhaustive, verdict.activations)
        for verdict in (auth, fresh)
    )


def _pm2_verdicts(budget: Budget) -> tuple:
    config = impl_crypto_multi()
    wire = Name("c")
    fresh = freshness(config.with_part("E", replayer(wire)), budget=budget)
    auth = authentication(config.with_part("E", replayer(wire)), "!A", budget=budget)
    env_fresh = env_freshness(config, budget=budget)
    env_auth = env_authentication(config, "!A", budget=budget)
    return (
        (fresh.holds, fresh.exhaustive, fresh.activations),
        (auth.holds, auth.exhaustive, auth.activations),
        (env_fresh.holds, env_fresh.exhaustive, env_fresh.states),
        (env_auth.holds, env_auth.exhaustive, env_auth.states),
    )


class TestReplicatedVerdictParity:
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_zoo_cache_on_and_off_agree(self, name):
        # At this budget no replicated zoo run reaches its observation,
        # so the authentication and freshness verdicts hold vacuously;
        # the secrecy ``heard`` counts are what can diverge.
        budget = Budget(120, 12)
        cached = _replicated_verdicts(name, budget)
        assert all(heard > 0 for _holds, _exhaustive, heard in cached[:2])
        canonical.set_cache_enabled(False)
        assert _replicated_verdicts(name, budget) == cached

    def test_pm2_cache_on_and_off_agree(self):
        # The paper's replicated Pm2 reaches its observations quickly:
        # the replay breaks freshness (intruder and most-general
        # attacker alike) while authentication holds over activations.
        budget = Budget(300, 12)
        cached = _pm2_verdicts(budget)
        assert not cached[0][0] and not cached[2][0]
        assert cached[1][0] and cached[1][2] > 0
        canonical.set_cache_enabled(False)
        assert _pm2_verdicts(budget) == cached
