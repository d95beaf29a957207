"""Chaos resilience suite (``repro.service.chaos``).

Layered like the instrument itself:

* unit tests for :class:`NetFaultPlan` / :class:`ChaosPlan` — JSON
  round-trips rejecting unknown keys, 1-based ordinal validation,
  decision determinism (a pure function of ``(plan, ordinal)``), and
  per-hop seed derivation;
* :class:`ChaosProxy` against a scripted framed upstream, one test per
  fault kind, pinning each fault's *observable* signature (refusal is
  EOF-before-any-byte, reset is delivered-but-unanswered, truncation is
  a torn frame, corruption is a poisoned payload, a blackhole is a
  timeout with the upstream never contacted);
* Hypothesis fuzz of :class:`FrameDecoder` fed one byte at a time,
  including corrupted length headers, asserting reassembly and
  poisoning;
* the headline integration storm: a real 3-shard cluster behind seeded
  network chaos, a busy shard killed ``-9``, the router killed mid-batch
  with a warm standby adopting the fleet — every job answered exactly
  once, every verdict equal to the single-process baseline, and the
  failing seed printed on any assertion failure;
* live resharding: grow and shrink under load, retired journals still
  deduping the keys that moved.

Every chaotic assertion is wrapped so a failure prints the seed that
reproduces it (``REPRO_CHAOS_SEED=<seed>``); see docs/chaos.md for the
determinism model.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runtime.journal import read_journal
from repro.runtime.worker import Job, run_job
from repro.service.chaos import (
    ChaosError,
    ChaosPlan,
    ChaosProxy,
    NetFaultPlan,
    load_chaos_plan,
)
from repro.service.client import ServiceClient, ServiceUnavailable, cluster_addresses
from repro.service.framing import (
    FrameDecoder,
    FramingError,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.service.router import (
    ClusterError,
    Router,
    RouterConfig,
    Standby,
    read_discovery,
)

ZOO = ["needham-schroeder-sk", "otway-rees", "yahalom", "woo-lam"]
KINDS = ["secrecy", "authentication", "freshness"]

#: One number reproduces one storm (see docs/chaos.md).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1009"))

#: Cluster knobs tuned for fast failure detection under injected chaos:
#: pings are cheap and frequent, and no fault in the storm plan stalls a
#: connection (no latency/blackhole on the ping path), so tight health
#: timeouts stay honest.
FAST_CHAOS_CLUSTER = {
    "workers_per_shard": 1,
    "queue_limit": 16,
    "retries": 0,
    "health_interval": 0.1,
    "health_timeout": 1.0,
    "health_failures": 2,
    "health_cooldown": 0.3,
    "respawn_base": 0.1,
    "respawn_cap": 1.0,
    "breaker_cooldown": 0.5,
    "shard_drain_grace": 5.0,
    "drain_grace": 10.0,
    "tick": 0.02,
    "heartbeat_interval": 0.1,
    "takeover_after": 1.0,
}


def wait_until(predicate, timeout: float = 60.0, interval: float = 0.05):
    """Poll an observable predicate (no bare sleeps in tests)."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


@contextmanager
def seed_reported(seed: int = CHAOS_SEED):
    """Any assertion failing inside this block names the seed that
    reproduces the storm."""
    try:
        yield
    except AssertionError as err:
        raise AssertionError(
            f"[chaos seed {seed}] {err} — reproduce with "
            f"REPRO_CHAOS_SEED={seed}"
        ) from err


# ----------------------------------------------------------------------
# NetFaultPlan / ChaosPlan units
# ----------------------------------------------------------------------


class TestNetFaultPlan:
    def test_json_round_trip(self):
        plan = NetFaultPlan(
            refuse_at=(1, 3), refuse_rate=0.1,
            reset_at=(2,), reset_rate=0.2,
            truncate_at=(4,), truncate_rate=0.05, truncate_bytes=3,
            corrupt_at=(5,), corrupt_rate=0.01, corrupt_offset=7,
            latency=0.25, blackhole=((10, 12),), seed=99,
        )
        assert NetFaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ChaosError, match="unknown"):
            NetFaultPlan.from_json({"refuse_att": [1]})

    def test_ordinals_are_one_based(self):
        with pytest.raises(ChaosError, match="1-based"):
            NetFaultPlan.from_json({"reset_at": [0]})

    def test_bad_blackhole_window_rejected(self):
        with pytest.raises(ChaosError, match="blackhole"):
            NetFaultPlan.from_json({"blackhole": [[1]]})

    def test_scheduled_ordinals_fire_exactly(self):
        plan = NetFaultPlan(refuse_at=(2,), reset_at=(4,))
        assert plan.decide(1) is None
        assert plan.decide(2) == "refuse"
        assert plan.decide(3) is None
        assert plan.decide(4) == "reset"

    def test_decisions_are_pure_in_plan_and_ordinal(self):
        """Same plan, same ordinal, same decision — regardless of what
        other ordinals were queried in between (concurrent connections
        must not perturb each other's draws)."""
        plan = NetFaultPlan(
            refuse_rate=0.2, reset_rate=0.2, truncate_rate=0.2,
            corrupt_rate=0.2, seed=CHAOS_SEED,
        )
        forward = [plan.decide(n) for n in range(1, 101)]
        backward = [plan.decide(n) for n in reversed(range(1, 101))]
        assert forward == list(reversed(backward))
        # The seed matters: a different seed gives a different storm.
        other = NetFaultPlan(
            refuse_rate=0.2, reset_rate=0.2, truncate_rate=0.2,
            corrupt_rate=0.2, seed=CHAOS_SEED + 1,
        )
        assert forward != [other.decide(n) for n in range(1, 101)]

    def test_rate_one_always_faults_rate_zero_never(self):
        always = NetFaultPlan(reset_rate=1.0, seed=7)
        never = NetFaultPlan(seed=7)
        for ordinal in range(1, 50):
            assert always.decide(ordinal) == "reset"
            assert never.decide(ordinal) is None

    def test_blackhole_window_outranks_everything(self):
        plan = NetFaultPlan(refuse_at=(5,), refuse_rate=1.0, blackhole=((4, 6),))
        assert plan.decide(4) == "blackhole"
        assert plan.decide(5) == "blackhole"
        assert plan.decide(6) == "blackhole"
        assert plan.decide(7) == "refuse"


class TestChaosPlan:
    def test_exact_hop_beats_wildcard(self):
        exact = NetFaultPlan(refuse_rate=1.0, seed=1)
        glob = NetFaultPlan(reset_rate=1.0, seed=2)
        plan = ChaosPlan(hops=(("shard-00", exact), ("*", glob)))
        assert plan.plan_for("shard-00").refuse_rate == 1.0
        assert plan.plan_for("shard-01").reset_rate == 1.0
        assert ChaosPlan(hops=(("shard-00", exact),)).plan_for("shard-09") is None

    def test_wildcard_hops_get_derived_per_shard_seeds(self):
        """A seed-0 hop plan inherits a per-shard seed derived from the
        schedule seed: every hop misbehaves differently, the whole storm
        reproduces from one number."""
        plan = ChaosPlan(
            hops=(("*", NetFaultPlan(reset_rate=0.5)),), seed=CHAOS_SEED
        )
        a = plan.plan_for("shard-00")
        b = plan.plan_for("shard-01")
        assert a.seed != 0 and b.seed != 0 and a.seed != b.seed
        assert plan.plan_for("shard-00") == a  # stable
        # An explicit hop seed is preserved verbatim.
        pinned = ChaosPlan(
            hops=(("*", NetFaultPlan(reset_rate=0.5, seed=42)),), seed=CHAOS_SEED
        )
        assert pinned.plan_for("shard-00").seed == 42

    def test_json_round_trip_and_unknown_keys(self):
        plan = ChaosPlan(
            hops=(("*", NetFaultPlan(reset_rate=0.25)),), seed=3
        )
        again = ChaosPlan.from_json(plan.to_json())
        assert again.seed == 3
        assert dict(again.hops)["*"].reset_rate == 0.25
        with pytest.raises(ChaosError, match="unknown"):
            ChaosPlan.from_json({"hopps": {}})

    def test_load_chaos_plan_file(self, tmp_path):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"seed": 11, "hops": {"*": {"refuse_at": [1]}}}
        ))
        plan = load_chaos_plan(str(path))
        assert plan.seed == 11
        assert plan.plan_for("anything").refuse_at == (1,)
        with pytest.raises(ChaosError, match="cannot read"):
            load_chaos_plan(str(tmp_path / "missing.json"))
        (tmp_path / "junk.json").write_text("[1, 2]")
        with pytest.raises(ChaosError, match="JSON object"):
            load_chaos_plan(str(tmp_path / "junk.json"))


# ----------------------------------------------------------------------
# ChaosProxy against a scripted upstream
# ----------------------------------------------------------------------


class _Upstream:
    """A framed echo server: records each request, answers
    ``{"status": "ok", "echo": <request>, "pad": ...}`` (padded past any
    truncation point)."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.sock.settimeout(0.25)
        self.address = ("tcp", self.sock.getsockname()[:2])
        self.requests: list[dict] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        conn.settimeout(5.0)
        try:
            while True:
                message = recv_frame(conn)
                if message is None:
                    return
                self.requests.append(message)
                send_frame(
                    conn, {"status": "ok", "echo": message, "pad": "x" * 64}
                )
        except (FramingError, OSError):
            pass
        finally:
            conn.close()

    def close(self):
        self._stop.set()
        self.sock.close()
        self._thread.join(timeout=5.0)


def _call_through(proxy, message, timeout=5.0):
    family, target = proxy.address
    sock = socket.socket(
        socket.AF_UNIX if family == "unix" else socket.AF_INET,
        socket.SOCK_STREAM,
    )
    sock.settimeout(timeout)
    try:
        sock.connect(target)
        send_frame(sock, message)
        return recv_frame(sock)
    finally:
        sock.close()


def _call_dead(proxy, message, timeout=5.0):
    """Call a hop that is expected to answer with nothing: clean EOF
    (``None``) or — on TCP, where closing with the request unread emits
    RST — a connection reset.  Both read as "dead endpoint" to the
    retrying client."""
    try:
        return _call_through(proxy, message, timeout=timeout)
    except ConnectionError:
        return None


@contextmanager
def proxied(plan):
    upstream = _Upstream()
    proxy = ChaosProxy(upstream=upstream.address, plan=plan, name="test").start()
    try:
        yield proxy, upstream
    finally:
        proxy.stop()
        upstream.close()


class TestChaosProxy:
    def test_clean_plan_relays_verbatim(self):
        with proxied(NetFaultPlan()) as (proxy, upstream):
            reply = _call_through(proxy, {"kind": "ping", "n": 1})
            assert reply["status"] == "ok"
            assert reply["echo"] == {"kind": "ping", "n": 1}
            assert upstream.requests == [{"kind": "ping", "n": 1}]
            # The relay thread bumps the counter *after* sendall, so the
            # reply can arrive a scheduling quantum before the count.
            wait_until(lambda: proxy.snapshot()["relayed"] >= 1, timeout=10.0)

    def test_refusal_is_eof_before_any_byte_and_undelivered(self):
        with proxied(NetFaultPlan(refuse_at=(1,))) as (proxy, upstream):
            assert _call_dead(proxy, {"kind": "ping"}) is None
            assert upstream.requests == []  # never reached the upstream
            # The very next connection is healthy: one fault, one conn.
            assert _call_through(proxy, {"kind": "ping"})["status"] == "ok"
            assert proxy.snapshot()["refuse"] == 1

    def test_reset_delivers_the_request_but_eats_the_reply(self):
        """The adversarial window journal-keyed dedupe exists for: the
        upstream did the work, the caller cannot know."""
        with proxied(NetFaultPlan(reset_at=(1,))) as (proxy, upstream):
            assert _call_dead(proxy, {"kind": "ping", "n": 7}) is None
            assert upstream.requests == [{"kind": "ping", "n": 7}]
            assert proxy.snapshot()["reset"] == 1

    def test_truncation_is_a_torn_frame(self):
        plan = NetFaultPlan(truncate_at=(1,), truncate_bytes=6)
        with proxied(plan) as (proxy, upstream):
            with pytest.raises(FramingError, match="mid-frame"):
                _call_through(proxy, {"kind": "ping"})
            assert upstream.requests  # delivered, answer torn
            assert proxy.snapshot()["truncate"] == 1

    def test_corruption_poisons_the_payload(self):
        with proxied(NetFaultPlan(corrupt_at=(1,))) as (proxy, upstream):
            with pytest.raises(FramingError, match="not JSON"):
                _call_through(proxy, {"kind": "ping"})
            assert proxy.snapshot()["corrupt"] == 1

    def test_blackhole_swallows_without_delivering(self):
        with proxied(NetFaultPlan(blackhole=((1, 1),))) as (proxy, upstream):
            with pytest.raises(socket.timeout):
                _call_through(proxy, {"kind": "ping"}, timeout=0.5)
            assert upstream.requests == []
            assert proxy.snapshot()["blackhole"] == 1
            # The partition window closed at ordinal 1: life goes on.
            assert _call_through(proxy, {"kind": "ping"})["status"] == "ok"

    def test_latency_is_injected_before_the_reply(self):
        with proxied(NetFaultPlan(latency=0.3)) as (proxy, upstream):
            started = time.monotonic()
            assert _call_through(proxy, {"kind": "ping"})["status"] == "ok"
            assert time.monotonic() - started >= 0.3

    def test_dead_upstream_reads_as_eof(self):
        upstream = _Upstream()
        upstream.close()  # nothing listens there any more
        proxy = ChaosProxy(
            upstream=upstream.address, plan=NetFaultPlan(), name="dead",
            connect_timeout=0.5,
        ).start()
        try:
            assert _call_dead(proxy, {"kind": "ping"}) is None
        finally:
            proxy.stop()


# ----------------------------------------------------------------------
# FrameDecoder fuzz (Hypothesis): byte-at-a-time, hostile headers
# ----------------------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
_MESSAGES = st.lists(
    st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=4),
    max_size=4,
)


class TestFrameDecoderFuzz:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(messages=_MESSAGES)
    def test_byte_at_a_time_reassembly(self, messages):
        """Feeding a valid stream one byte at a time yields exactly the
        encoded messages, in order, with nothing left buffered."""
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        out = []
        for index in range(len(stream)):
            out.extend(decoder.feed(stream[index:index + 1]))
        assert out == messages
        assert decoder.pending_bytes == 0

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(
        excess=st.integers(min_value=1, max_value=2**32 - 1),
        prefix=_MESSAGES,
    )
    def test_oversize_length_header_poisons_at_the_fourth_byte(
        self, excess, prefix
    ):
        """A corrupted length header announcing more than the cap must
        poison the decoder the moment the header completes — before any
        payload byte is accepted — and stay poisoned: a stream that lost
        frame alignment can never be trusted again."""
        frames = [encode_frame(m) for m in prefix]
        # The cap admits every clean prefix frame, however large, so only
        # the hostile header can exceed it.
        cap = max([1024, *map(len, frames)])
        length = min(cap + excess, 2**32 - 1)
        decoder = FrameDecoder(max_frame=cap)
        clean = b"".join(frames)
        for index in range(len(clean)):
            decoder.feed(clean[index:index + 1])
        hostile = struct.pack(">I", length)
        decoder.feed(hostile[0:1])
        decoder.feed(hostile[1:2])
        decoder.feed(hostile[2:3])
        with pytest.raises(FramingError, match="announced"):
            decoder.feed(hostile[3:4])
        assert decoder.pending_bytes == 0  # buffer dropped, not leaked
        with pytest.raises(FramingError):
            decoder.feed(b"\x00")  # poisoned for good

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=st.binary(min_size=1, max_size=32))
    def test_non_json_payload_poisons(self, payload):
        try:
            import json

            parsed = json.loads(payload.decode("utf-8"))
            if isinstance(parsed, dict):
                return  # accidentally valid: not this test's subject
        except (ValueError, UnicodeDecodeError):
            pass
        decoder = FrameDecoder()
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(FramingError):
            for index in range(len(frame)):
                decoder.feed(frame[index:index + 1])
        with pytest.raises(FramingError):
            decoder.feed(b"")


# ----------------------------------------------------------------------
# The storm: chaos + shard kill -9 + router kill -9 + standby takeover
# ----------------------------------------------------------------------


def _storm_plan(seed: int) -> ChaosPlan:
    """The seeded storm: every router->shard hop refuses, resets,
    truncates, and corrupts a fraction of its connections.  No latency
    or blackhole on this plan — both stall the synchronous health-probe
    path, which is exercised separately (`test_partitioned_shard_*`)."""
    return ChaosPlan(
        hops=(
            ("*", NetFaultPlan(
                refuse_rate=0.05,
                reset_rate=0.10,
                truncate_rate=0.05,
                corrupt_rate=0.05,
            )),
        ),
        seed=seed,
    )


def _zoo_jobs():
    return [
        Job(
            id=f"{kind}:zoo:{name}", kind=kind, target={"zoo": name},
            max_states=2000, max_depth=40,
        )
        for kind in KINDS
        for name in ZOO
    ]


def _result_counts(journal_paths) -> dict[str, int]:
    counts: dict[str, int] = {}
    for path in journal_paths:
        for record in read_journal(path):
            if record.get("type") == "result":
                counts[record["job"]] = counts.get(record["job"], 0) + 1
    return counts


class TestChaosStorm:
    def test_storm_with_shard_and_router_death_exactly_once_with_parity(self):
        """The headline contract: 12 jobs through a 3-shard cluster
        whose every hop runs the seeded storm, one busy shard killed
        ``-9``, then the router itself killed mid-batch with a warm
        standby adopting the fleet.  Every job gets exactly one verdict
        (one ``result`` record across all journals), every verdict
        equals the single-process baseline, the promoted router drains
        exit 0 — and any failure prints the seed that reproduces it."""
        jobs = _zoo_jobs()
        scratch = tempfile.mkdtemp(prefix="repro-chaos-")
        cluster_dir = os.path.join(scratch, "c")
        primary = Router(RouterConfig(
            dir=cluster_dir,
            socket_path=os.path.join(scratch, "router.sock"),
            shards=3,
            allow_fault_injection=True,
            chaos=_storm_plan(CHAOS_SEED),
            **FAST_CHAOS_CLUSTER,
        ))
        standby = Standby(RouterConfig(
            dir=cluster_dir,
            socket_path=os.path.join(scratch, "standby.sock"),
            shards=3,
            allow_fault_injection=True,
            chaos=_storm_plan(CHAOS_SEED),
            **FAST_CHAOS_CLUSTER,
        ))
        primary.bind()
        primary_exit: list[int] = []
        primary_thread = threading.Thread(
            target=lambda: primary_exit.append(primary.serve_forever()),
            daemon=True,
        )
        standby_exit: list[int] = []
        standby_thread = threading.Thread(
            target=lambda: standby_exit.append(standby.run()), daemon=True
        )
        replies: dict[str, dict] = {}
        errors: list[str] = []
        journals: list[str] = []
        shard_pids: list[int] = []
        try:
            primary_thread.start()
            wait_until(lambda: all(
                h["last_pong"] for h in primary.health.snapshot().values()
            ) and len(primary.health.healthy_ids()) == 3)
            standby_thread.start()
            journals = [
                shard.spec.journal_path for shard in primary._shards.values()
            ]

            def submit(job):
                # Every submitter re-reads discovery between retries, so
                # it follows the takeover to the standby's listener.
                client = ServiceClient(
                    cluster_addresses(cluster_dir), timeout=120.0, retries=14,
                    backoff_base=0.05, backoff_cap=0.5,
                    refresh=lambda: cluster_addresses(cluster_dir),
                )
                try:
                    replies[job.id] = client.submit(
                        job.kind, job.target,
                        id=job.id, max_states=job.max_states,
                        max_depth=job.max_depth,
                    )
                except ServiceUnavailable as err:
                    errors.append(f"{job.id}: {err}")

            threads = [
                threading.Thread(target=submit, args=(job,)) for job in jobs
            ]
            for thread in threads:
                thread.start()

            # Kill -9 a busy shard while the storm rages...
            def busy_local_pid():
                for shard in primary._shards.values():
                    if shard.inflight and shard.process is not None:
                        pid = shard.process.pid
                        if pid is not None and shard.process.alive():
                            return pid
                return None

            victim = wait_until(busy_local_pid, timeout=60.0, interval=0.005)
            os.kill(victim, signal.SIGKILL)

            # ...then, once the batch is demonstrably in flight, kill
            # the router itself (in-process kill -9: no drain, no
            # goodbye, shards left running as adoptable orphans).
            wait_until(lambda: len(replies) >= 3, timeout=120.0)
            primary.abort()
            primary_thread.join(timeout=30)
            with seed_reported():
                assert not primary_thread.is_alive(), "aborted router hung"

            # The standby notices (stale heartbeat + failed pings),
            # adopts the fleet, rewrites discovery to its own listener.
            wait_until(standby.promoted.is_set, timeout=30.0)
            promoted = standby.router
            with seed_reported():
                assert promoted.role == "standby-promoted"
                disco = read_discovery(cluster_dir)
                assert disco["router"]["socket"].endswith("standby.sock")

            for thread in threads:
                thread.join(timeout=240)
            with seed_reported():
                assert not any(t.is_alive() for t in threads), "submits hung"
                assert not errors, errors
                assert set(replies) == {job.id for job in jobs}
                for job_id, reply in replies.items():
                    assert reply["status"] == "ok", (job_id, reply)

            # The storm actually bit: chaos proxies injected faults.
            injected = 0
            for router in (primary, promoted):
                for shard in router._shards.values():
                    if shard.proxy is not None:
                        snap = shard.proxy.snapshot()
                        injected += sum(
                            snap[k]
                            for k in ("refuse", "reset", "truncate", "corrupt")
                        )
            with seed_reported():
                assert injected >= 1, "storm plan never fired"
                assert (
                    primary.metrics.counter("cluster.shard_deaths").value >= 1
                )

            shard_pids = [
                shard.process.pid
                for shard in promoted._shards.values()
                if shard.process is not None and shard.process.pid
            ]
            standby.request_drain()
            standby_thread.join(timeout=90)
            with seed_reported():
                assert not standby_thread.is_alive(), "promoted router hung"
                assert standby_exit == [0], f"drain exited {standby_exit}"

            # Reap: the fleet was spawned as children of *this* process
            # (the in-process primary), so the promoted router's
            # SIGTERMs leave zombies no out-of-process standby would
            # ever see — poll the original Popen handles to clear them
            # before the orphan check below.
            for shard in primary._shards.values():
                if shard.process is not None and shard.process.proc is not None:
                    shard.process.proc.poll()

            counts = _result_counts(journals)
        finally:
            standby.request_drain()
            for pid in shard_pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            shutil.rmtree(scratch, ignore_errors=True)

        with seed_reported():
            # Exactly once: one result record per job, fleet-wide.
            assert counts == {job.id: 1 for job in jobs}
            # Fault-free parity: every verdict equals the single-process
            # baseline — chaos may delay or reroute an answer, never
            # change it.
            for job in jobs:
                baseline = run_job(job)
                served = replies[job.id]["result"]
                assert served["holds"] == baseline["holds"], job.id
                assert served["violated"] == baseline["violated"], job.id
                assert served["exact"] == baseline["exact"], job.id

        # Drain propagated through the promoted router: no orphans.
        for pid in shard_pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_partitioned_shard_fails_over_to_survivors(self):
        """A blackholed hop is a network partition: the shard is alive
        but unreachable.  Requests must fail over to the survivors and
        the partitioned shard must be ejected — no verdict lost."""
        scratch = tempfile.mkdtemp(prefix="repro-part-")
        plan = ChaosPlan(
            hops=(
                # shard-00's hop swallows everything from the start.
                ("shard-00", NetFaultPlan(blackhole=((1, 10_000),))),
            ),
            seed=CHAOS_SEED,
        )
        overrides = dict(FAST_CHAOS_CLUSTER)
        overrides.update({
            # A blackholed probe rides its full timeout in the router
            # loop, so keep that timeout tight.
            "health_timeout": 0.4,
            "forward_timeout": 2.0,
        })
        router = Router(RouterConfig(
            dir=os.path.join(scratch, "c"),
            socket_path=os.path.join(scratch, "router.sock"),
            shards=3,
            allow_fault_injection=True,
            chaos=plan,
            **overrides,
        ))
        router.bind()
        exit_code: list[int] = []
        thread = threading.Thread(
            target=lambda: exit_code.append(router.serve_forever()), daemon=True
        )
        thread.start()
        try:
            # Only the two reachable shards can ever prove health.
            wait_until(lambda: {
                sid for sid, h in router.health.snapshot().items()
                if h["last_pong"]
            } == {"shard-01", "shard-02"}, timeout=60.0)
            wait_until(
                lambda: not router.health.healthy("shard-00"), timeout=60.0
            )
            client = ServiceClient(
                ("unix", router.config.socket_path), timeout=30.0, retries=8,
                backoff_base=0.05, backoff_cap=0.5,
            )
            reply = client.submit(
                "secrecy", {"zoo": "yahalom"}, id="secrecy:zoo:yahalom",
                max_states=2000, max_depth=40,
            )
            with seed_reported():
                assert reply["status"] == "ok"
                assert reply["shard"] in ("shard-01", "shard-02")
                blackholed = router._shards["shard-00"].proxy.snapshot()
                assert blackholed["blackhole"] >= 1
        finally:
            router.request_drain()
            thread.join(timeout=90)
            shutil.rmtree(scratch, ignore_errors=True)
        assert exit_code == [0]

    def test_chaos_requires_fault_injection_opt_in(self, tmp_path):
        with pytest.raises(ClusterError, match="allow-fault-injection"):
            Router(RouterConfig(
                dir=str(tmp_path / "c"),
                socket_path=str(tmp_path / "r.sock"),
                shards=1,
                chaos=_storm_plan(1),
            ))


# ----------------------------------------------------------------------
# Live resharding
# ----------------------------------------------------------------------


@contextmanager
def running_cluster(shards=3, **overrides):
    scratch = tempfile.mkdtemp(prefix="repro-resize-")
    options = dict(
        dir=os.path.join(scratch, "c"),
        socket_path=os.path.join(scratch, "router.sock"),
        shards=shards,
        **FAST_CHAOS_CLUSTER,
    )
    options.update(overrides)
    router = Router(RouterConfig(**options))
    router.bind()
    exit_code: list[int] = []
    thread = threading.Thread(
        target=lambda: exit_code.append(router.serve_forever()), daemon=True
    )
    thread.start()
    client = ServiceClient(
        ("unix", options["socket_path"]), timeout=120.0, retries=8,
        backoff_base=0.05, backoff_cap=0.5,
    )
    try:
        wait_until(lambda: all(
            h["last_pong"] for h in router.health.snapshot().values()
        ) and len(router.health.healthy_ids()) == shards)
        yield router, client
    finally:
        router.request_drain()
        thread.join(timeout=90)
        alive = thread.is_alive()
        shutil.rmtree(scratch, ignore_errors=True)
        assert not alive, "cluster failed to drain"
        assert exit_code == [0], f"drain exited {exit_code}"


class TestLiveResharding:
    def test_grow_then_shrink_with_retired_journal_dedupe(self):
        """Grow 2 -> 4 via the control frame, compute a batch, shrink
        back to 2, and re-submit a job whose verdict lives only in a
        retired shard's journal: it must come back ``cached``, not be
        recomputed — the minimal-remap property means moved keys carry
        their history with them."""
        jobs = _zoo_jobs()[:6]
        with running_cluster(shards=2) as (router, client):
            reply = client.call({"kind": "resize", "shards": 4})
            assert reply["status"] == "ok"
            assert reply["resize"]["added"] == ["shard-02", "shard-03"]
            # Wait for *pongs*, not mere healthiness: freshly grown
            # shards join the ring optimistically (watch() starts them
            # healthy) before their serve process has even bound its
            # socket, and a submit in that window fails over onto the
            # old shards — correct, but it would compute the batch on
            # the survivors and leave nothing for the retired-journal
            # assertions below.
            wait_until(lambda: (
                len(router.health.healthy_ids()) == 4
                and len(router._ring) == 4
                and all(
                    h["last_pong"]
                    for h in router.health.snapshot().values()
                )
            ))

            served_by: dict[str, str] = {}
            for job in jobs:
                answer = client.submit(
                    job.kind, job.target, id=job.id,
                    max_states=job.max_states, max_depth=job.max_depth,
                )
                assert answer["status"] == "ok", (job.id, answer)
                served_by[job.id] = answer["shard"]

            reply = client.call({"kind": "resize", "shards": 2})
            assert reply["status"] == "ok"
            assert reply["resize"]["removed"] == ["shard-02", "shard-03"]
            assert sorted(router._retired) == ["shard-02", "shard-03"]
            wait_until(lambda: len(router.health.healthy_ids()) == 2)

            moved = [
                job_id for job_id, shard in served_by.items()
                if shard in ("shard-02", "shard-03")
            ]
            assert moved  # sha256 ring: deterministic, non-empty here
            for job_id in moved:
                job = next(j for j in jobs if j.id == job_id)
                again = client.submit(
                    job.kind, job.target, id=job.id,
                    max_states=job.max_states, max_depth=job.max_depth,
                )
                assert again["status"] == "ok"
                assert again.get("cached") is True, (job_id, again)
                assert again["shard"] in ("shard-02", "shard-03")

            # Re-growing revives the retired ids rather than minting new
            # ones: their journals and directory slots come back.
            reply = client.call({"kind": "resize", "shards": 3})
            assert reply["resize"]["added"] == ["shard-02"]
            wait_until(lambda: len(router.health.healthy_ids()) == 3)

    def test_resize_via_file_and_signal_flag(self):
        """The SIGHUP path, minus the signal: ``resize.json`` +
        ``signal_resize()`` resharders on the next loop tick."""
        import json

        with running_cluster(shards=1) as (router, client):
            path = os.path.join(router.config.dir, "resize.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"shards": 2}, handle)
            router.signal_resize()
            wait_until(lambda: len(router.health.healthy_ids()) == 2)
            assert "shard-01" in router._shards

    def test_resize_refusals(self):
        with running_cluster(shards=1) as (router, client):
            bad = client.call({"kind": "resize", "shards": 0})
            assert bad["status"] == "error"
            assert "need >= 1" in bad["error"]
            nonsense = client.call({"kind": "resize", "shards": "many"})
            assert nonsense["status"] == "error"
            noop = client.call({"kind": "resize", "shards": 1})
            assert noop["status"] == "ok"
            assert noop["resize"] == {"shards": 1, "added": [], "removed": []}


# ----------------------------------------------------------------------
# Client refresh (discovery-following retries)
# ----------------------------------------------------------------------


class TestClientRefresh:
    def test_refresh_replaces_addresses_after_connect_failure(self, tmp_path):
        """A client pinned to a dead endpoint re-reads discovery between
        retries and lands on the live one — the takeover contract from
        the client's side."""
        live = _Upstream()
        dead = str(tmp_path / "dead.sock")
        moves: list[int] = []

        def refresh():
            moves.append(1)
            return [live.address]

        client = ServiceClient(
            ("unix", dead), timeout=2.0, retries=3,
            backoff_base=0.01, backoff_cap=0.02, refresh=refresh,
        )
        try:
            reply = client.call({"kind": "ping"})
            assert reply["status"] == "ok"
            assert moves  # the refresh was consulted
            assert client.addresses == [live.address]
        finally:
            live.close()

    def test_refresh_errors_fall_back_to_rotation(self, tmp_path):
        live = _Upstream()

        def refresh():
            raise RuntimeError("discovery unreadable")

        client = ServiceClient(
            [("unix", str(tmp_path / "dead.sock")), live.address],
            timeout=2.0, retries=3, backoff_base=0.01, backoff_cap=0.02,
            refresh=refresh,
        )
        try:
            assert client.call({"kind": "ping"})["status"] == "ok"
        finally:
            live.close()

    def test_cluster_addresses_reads_discovery(self, tmp_path):
        import json

        directory = str(tmp_path)
        assert cluster_addresses(directory) == []  # missing: advisory
        with open(os.path.join(directory, "cluster.json"), "w") as handle:
            json.dump({
                "router": {"socket": "/tmp/r.sock", "tcp": ["127.0.0.1", 9]},
            }, handle)
        assert cluster_addresses(directory) == [
            ("unix", "/tmp/r.sock"), ("tcp", ("127.0.0.1", 9)),
        ]
        with open(os.path.join(directory, "cluster.json"), "w") as handle:
            handle.write("{damaged")
        assert cluster_addresses(directory) == []


# ----------------------------------------------------------------------
# CLI: standby takeover end to end, cluster-status, cluster-resize
# ----------------------------------------------------------------------


class TestChaosCli:
    def test_standby_takeover_after_router_kill_nine(self):
        """Through the real CLI: primary + warm standby on one cluster
        directory, ``kill -9`` the primary mid-life, and the standby
        must adopt the shards (same pids — no recompute fleet), rewrite
        discovery, and serve a ``submit --cluster`` that proves the
        journal survived: a verdict computed under the primary comes
        back ``cached`` from the adopted journals."""
        scratch = tempfile.mkdtemp(prefix="repro-stby-")
        cluster_dir = os.path.join(scratch, "c")
        env = dict(os.environ, PYTHONPATH="src")
        common = [
            "--dir", cluster_dir, "--shards", "2",
            "--workers-per-shard", "1",
            "--health-interval", "0.2", "--health-cooldown", "0.5",
            "--respawn-base", "0.1", "--shard-drain-grace", "5",
            "--heartbeat-interval", "0.2", "--takeover-after", "1.5",
        ]
        primary = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster",
             "--socket", os.path.join(scratch, "router.sock"), *common],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        standby = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster", "--standby",
             "--socket", os.path.join(scratch, "standby.sock"), *common],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            wait_until(lambda: (
                (read_discovery(cluster_dir) or {})
                .get("router", {}).get("socket", "")
            ).endswith("router.sock"), timeout=60.0)

            def cli_submit(job_id):
                return subprocess.run(
                    [sys.executable, "-m", "repro.cli", "submit",
                     "secrecy", "yahalom", "--cluster", cluster_dir,
                     "--id", job_id,
                     "--max-states", "400", "--max-depth", "24",
                     "--connect-retries", "10", "--json"],
                    env=env, capture_output=True, text=True, timeout=120,
                )

            import json

            first = cli_submit("secrecy:zoo:yahalom")
            assert first.returncode == 0, first.stdout + first.stderr
            before = json.loads(first.stdout)
            assert before["status"] == "ok"

            pids_before = {
                sid: info["pid"]
                for sid, info in read_discovery(cluster_dir)["shards"].items()
            }
            primary.send_signal(signal.SIGKILL)
            primary.communicate(timeout=30)

            wait_until(lambda: (
                (read_discovery(cluster_dir) or {})
                .get("router", {}).get("socket", "")
            ).endswith("standby.sock"), timeout=60.0)
            after_disco = read_discovery(cluster_dir)
            assert after_disco["router"]["role"] == "standby-promoted"
            pids_after = {
                sid: info["pid"] for sid, info in after_disco["shards"].items()
            }
            assert pids_after == pids_before  # adopted, not respawned

            again = cli_submit("secrecy:zoo:yahalom")
            assert again.returncode == 0, again.stdout + again.stderr
            after = json.loads(again.stdout)
            assert after["status"] == "ok"
            assert after.get("cached") is True  # exactly-once across death
            assert after["result"] == before["result"]

            standby.send_signal(signal.SIGTERM)
            output, _ = standby.communicate(timeout=120)
        finally:
            for proc in (primary, standby):
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate(timeout=30)
            shutil.rmtree(scratch, ignore_errors=True)
        assert standby.returncode == 0, output
        assert "standby watching" in output
        assert "drained" in output
        # Drain propagated to the adoptees.  They reparented to init
        # when the primary died, so nobody here can reap them — a
        # zombie-aware liveness probe, not os.kill(pid, 0), is the
        # honest check.
        from repro.service.shards import _pid_alive

        for pid in pids_after.values():
            assert not _pid_alive(pid), f"adopted shard {pid} outlived drain"

    def test_cluster_status_and_resize_commands(self):
        """``cluster-status`` renders the health table (and raw JSON),
        ``cluster-resize`` reshards through discovery — both against a
        real CLI cluster."""
        import json

        scratch = tempfile.mkdtemp(prefix="repro-cstat-")
        cluster_dir = os.path.join(scratch, "c")
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster",
             "--dir", cluster_dir,
             "--socket", os.path.join(scratch, "router.sock"),
             "--shards", "2", "--workers-per-shard", "1",
             "--health-interval", "0.2", "--shard-drain-grace", "5"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            wait_until(
                lambda: read_discovery(cluster_dir) is not None, timeout=60.0
            )
            status = subprocess.run(
                [sys.executable, "-m", "repro.cli", "cluster-status",
                 cluster_dir],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert status.returncode == 0, status.stdout + status.stderr
            assert "role primary" in status.stdout
            assert "shard-00" in status.stdout and "shard-01" in status.stdout
            assert "SHARD" in status.stdout and "BREAKER" in status.stdout

            raw = subprocess.run(
                [sys.executable, "-m", "repro.cli", "cluster-status",
                 cluster_dir, "--json"],
                env=env, capture_output=True, text=True, timeout=60,
            )
            frame = json.loads(raw.stdout)
            assert frame["cluster"]["role"] == "primary"
            assert set(frame["shards"]) == {"shard-00", "shard-01"}

            resize = subprocess.run(
                [sys.executable, "-m", "repro.cli", "cluster-resize",
                 cluster_dir, "3"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert resize.returncode == 0, resize.stdout + resize.stderr
            assert "added ['shard-02']" in resize.stdout
            wait_until(lambda: "shard-02" in (
                (read_discovery(cluster_dir) or {}).get("shards", {})
            ), timeout=60.0)

            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
            shutil.rmtree(scratch, ignore_errors=True)
        assert proc.returncode == 0, output

    def test_cluster_status_unreachable_exits_2(self, tmp_path):
        import json

        directory = str(tmp_path)
        with open(os.path.join(directory, "cluster.json"), "w") as handle:
            json.dump(
                {"router": {"socket": str(tmp_path / "gone.sock")}}, handle
            )
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster-status", directory],
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "unreachable" in result.stdout
