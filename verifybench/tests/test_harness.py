"""The benchmark harness's pure parts: statistics, spans, inputs, answers."""

import json
import os
import sys
import types
from collections import Counter

import pytest

from verifybench import answers, inputs, report, spans, stats
from verifybench.stats import Span

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- statistics --------------------------------------------------------


def test_median_with_its_sample_count():
    assert stats.median([3.0, 1.0, 2.0]) == (2.0, 3, 1)
    # An even count averages the two middle samples: between two clusters
    # the median moves with both edges, not with one of them.
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == (2.5, 4, 2)
    assert stats.median([1.0, 1.2, 5.0, 5.2]).value == pytest.approx(3.1)
    with pytest.raises(ValueError):
        stats.median([])


def test_nearest_rank_reports_sample_count_and_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.nearest_rank(values, 0.9) == (90.0, 100, 10)
    assert stats.nearest_rank(values, 0.5) == (50.0, 100, 50)
    assert stats.nearest_rank(values, 1.0) == (100.0, 100, 0)
    assert stats.nearest_rank([7.0], 0.9) == (7.0, 1, 0)
    # Four samples: the 90th percentile is the largest, nothing beyond it.
    assert stats.nearest_rank([4.0, 1.0, 3.0, 2.0], 0.9) == (4.0, 4, 0)
    assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == (3.0, 5, 2)


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0.0)


def test_union_length_counts_overlaps_once():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert stats.union_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert stats.union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert stats.union_length([(5.0, 6.0), (0.0, 1.0), (0.5, 1.5)]) == 2.5


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        Span(1, 0, "parent", 0.0, 10.0),
        Span(2, 1, "child", 1.0, 4.0),
        Span(3, 1, "child", 3.0, 6.0),  # overlaps the first child
        Span(4, 2, "grandchild", 1.5, 2.0),
    ]
    own = stats.self_times(recorded)
    assert own["parent"] == pytest.approx(10.0 - 5.0)
    assert own["child"] == pytest.approx((3.0 - 0.5) + 3.0)
    assert own["grandchild"] == pytest.approx(0.5)


def test_self_time_clips_children_to_the_parent():
    recorded = [Span(1, 0, "parent", 0.0, 2.0), Span(2, 1, "child", 1.0, 5.0)]
    own = stats.self_times(recorded)
    assert own["parent"] == pytest.approx(1.0)
    assert own["child"] == pytest.approx(4.0)


def test_call_counts_and_ratio():
    recorded = [Span(1, 0, "a", 0, 1), Span(2, 0, "a", 1, 2), Span(3, 0, "b", 2, 3)]
    assert stats.call_counts(recorded) == {"a": 2, "b": 1}
    assert stats.ratio(1, 4) == 0.25
    assert stats.ratio(1, 0) == 0.0


# -- spans -------------------------------------------------------------


@pytest.fixture
def fake_module():
    module = types.ModuleType("verifybench_fake_layer")
    exec(
        "def inner(x):\n    return x + 1\n\n"
        "def outer(x):\n    return inner(x) * 2\n",
        module.__dict__,
    )
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_recorder_wraps_where_the_name_is_looked_up_and_restores(fake_module):
    original_inner = fake_module.inner
    recorder = spans.Recorder()
    targets = [
        (fake_module.__name__, "inner", "layer.inner"),
        (fake_module.__name__, "outer", "layer.outer"),
    ]
    with recorder.installed(targets):
        assert fake_module.outer(1) == 4
    assert fake_module.inner is original_inner
    by_name = {span.name: span for span in recorder.spans}
    assert set(by_name) == {"layer.inner", "layer.outer"}
    assert by_name["layer.outer"].parent == 0
    assert by_name["layer.inner"].parent == by_name["layer.outer"].id
    assert fake_module.outer(1) == 4
    assert len(recorder.spans) == 2  # no span once restored


def test_recorder_restores_after_an_exception(fake_module):
    original = fake_module.inner
    with pytest.raises(RuntimeError):
        with spans.Recorder().installed([(fake_module.__name__, "inner", "x")]):
            raise RuntimeError("boom")
    assert fake_module.inner is original


def test_recorder_writes_spans(tmp_path):
    import gzip

    recorder = spans.Recorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    path = tmp_path / "spans.jsonl.gz"
    recorder.write(str(path))
    with gzip.open(path, "rt") as handle:
        rows = [json.loads(line) for line in handle]
    assert [row["name"] for row in rows] == ["inner", "outer"]
    assert rows[0]["parent"] == rows[1]["id"]


def test_every_target_names_an_existing_function():
    import importlib

    for module_name, attribute, _ in spans.EXPLORATION + spans.VERDICTS + spans.SERVING:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attribute)


# -- inputs ------------------------------------------------------------


def _keys(requests):
    return [(r.entry, r.max_states, r.max_depth) for r in requests]


def _passes(seed, count=5):
    orders = inputs.explore_orders(seed)
    return [next(orders) for _ in range(count)]


def test_same_seed_same_inputs_and_different_seed_different_inputs():
    assert _passes(7) == _passes(7)
    assert _passes(7) != _passes(8)
    assert all(sorted(order) == sorted(inputs.ZOO_PROTOCOLS) for order in _passes(7))
    assert inputs.serve_plan(7, 100) == inputs.serve_plan(7, 100)
    assert inputs.serve_plan(7, 100) != inputs.serve_plan(8, 100)
    assert inputs.serve_plan(7, 100).prewarm != inputs.serve_plan(8, 100).prewarm


def test_serve_plan_composition_depends_only_on_the_request_count():
    plans = [inputs.serve_plan(seed, 100) for seed in (1, 2, 3)]
    mixes = [Counter(r.entry for r in plan.timed) for plan in plans]
    assert mixes[0] == mixes[1] == mixes[2]
    plan = plans[0]
    assert len(plan.timed) == 100
    assert len(plan.prewarm) == 40
    heavy = Counter(r.entry for r in plan.timed if r.entry in inputs.EXPENSIVE)
    assert sum(heavy.values()) == 18
    assert {heavy[e] for e in inputs.EXPENSIVE if e.system == "pm2"} == {4}
    assert {heavy[e] for e in inputs.EXPENSIVE if e.system == "pm3"} == {2}
    assert len(plan.warmup) == len(plan.clients) == 2
    # Both clients send the same expensive mix.
    first, second = (
        Counter(r.entry for r in client if r.entry in inputs.EXPENSIVE)
        for client in plan.clients
    )
    assert first == second
    # ... step by step: the same expensive entry, a cheap miss, or a hit.
    prewarmed = set(plan.prewarm)

    def steps(client):
        return [
            r.entry if r.entry in inputs.EXPENSIVE else r in prewarmed for r in client
        ]

    assert steps(plan.clients[0]) == steps(plan.clients[1])


def test_serve_plan_never_repeats_a_key_and_hits_exactly_the_prewarm():
    plan = inputs.serve_plan(3, 100)
    prewarmed = set(_keys(plan.prewarm))
    timed = _keys(plan.timed)
    assert len(set(timed)) == len(timed)
    assert prewarmed <= set(timed)
    assert not set(_keys(plan.warmup)) & set(timed)
    for request in plan.timed + plan.warmup:
        budgets = inputs.EXPENSIVE_BUDGETS if request.entry in inputs.EXPENSIVE else inputs.BUDGETS
        assert (request.max_states, request.max_depth) in budgets
    assert all(r.entry in inputs.CHEAP for r in plan.prewarm)


def test_tiny_serve_plans_still_work():
    plan = inputs.serve_plan(1, 5)
    assert len(plan.timed) == 5
    with pytest.raises(ValueError):
        inputs.serve_plan(1, 0)


# -- answers -----------------------------------------------------------


def test_the_table_covers_every_catalogue_entry():
    for entry in inputs.CHEAP + inputs.EXPENSIVE + (inputs.WARMUP,):
        assert isinstance(answers.expected_holds(entry), bool)


def test_check_result_flags_mismatches_and_uncertified_violations():
    att2 = inputs.Entry("freshness", "pm2")
    assert answers.check_result(att2, {"holds": False, "violated": True, "certified": True}) is None
    assert "certified" in answers.check_result(att2, {"holds": False, "violated": True})
    assert "paper says" in answers.check_result(att2, {"holds": True, "violated": False})
    prop2 = inputs.Entry("check", "p2")
    assert answers.check_result(prop2, {"secure": True, "violated": False}) is None
    zoo = inputs.Entry("secrecy", "yahalom")
    assert "exactly" in answers.check_result(zoo, {"holds": True, "exact": False})
    assert "status" in answers.check_reply(zoo, {"status": "degraded", "result": {}})


def test_check_exploration_checks_reason_and_exact_states():
    class Graph:
        def __init__(self, reasons, states):
            self.exhaustion = types.SimpleNamespace(reasons=reasons) if reasons else None
            self._states = states

        def state_count(self):
            return self._states

    assert answers.check_exploration(Graph(("states",), 480), "states", 480) is None
    assert answers.check_exploration(Graph(("states",), 479), "states", 480)
    assert answers.check_exploration(Graph(("depth", "states"), 480), "states", 480)
    assert answers.check_exploration(Graph(("depth",), 700), "depth", None) is None
    assert answers.check_exploration(Graph((), 700), "depth", None)


# -- report ------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER


def test_result_line_has_exactly_the_contract_keys():
    metrics = {"jobs_per_s": 2.5, "verdict_s.p50": 0.1,
               "verdict_s.p90": stats.Percentile(0.3, 100, 10),
               "setup_s": 0.4, "peak_rss_mb": 90.0}
    line = json.loads(report.result_line(metrics, report.END_TO_END, 4, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["metrics"]["verdict_s.p90"] == {"value": 0.3, "unit": "s"}
    assert json.loads(report.result_line(metrics, report.END_TO_END, 4, 1))["correct"] is False
    saved = json.loads(report.record({"seed": 1, "commit": "abc"}, json.dumps(line), []))
    assert saved["provenance"]["commit"] == "abc" and saved["result"] == line
