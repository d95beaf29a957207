"""Metric names and units, the provenance stamp, and the printed report."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Collection, Mapping, Sequence, Union

from verifybench.stats import Percentile

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "jobs_per_s": "1/s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.  Times, counts and
#: ratios over several jobs are per pass (one run's explorations, or one
#: run's computed serve requests).
PER_LAYER = {
    "core.substitution.self_s": "s",
    "semantics.transitions.batched_successors.self_s": "s",
    "semantics.transitions.batched_successors.calls": "count",
    "semantics.normalize.self_s": "s",
    "semantics.canonical.intern_process.self_s": "s",
    "semantics.canonical.state_key.self_s": "s",
    "semantics.canonical.state_key.us_per_call": "us",
    "semantics.canonical.key_hit_ratio": "ratio",
    "semantics.canonical.interned_nodes": "count",
    "semantics.reduction.reduced_successors.self_s": "s",
    "semantics.reduction.ample_ratio": "ratio",
    "semantics.reduction.sym_merges": "count",
    "semantics.lts.explore.self_s": "s",
    "semantics.lts.states": "count",
    "semantics.lts.dedup_ratio": "ratio",
    "semantics.lts.states_per_s": "1/s",
    "analysis.environment.env_explore.self_s": "s",
    "analysis.attacks.securely_implements.self_s": "s",
    "equivalence.testing.passes_result.self_s": "s",
    "analysis.attackers_checked": "count",
    "equivalence.tests_checked": "count",
    "semantics.replay.replay_result.self_s": "s",
    "semantics.replay.replay_result.calls": "count",
    "runtime.worker.compute_s.p50": "s",
    "service.overhead_s.p50": "s",
    "service.overhead_s.p90": "s",
    "runtime.supervisor.busy_ratio": "ratio",
    "service.store.hit_ratio": "ratio",
    "service.store.lookup_s": "s",
    "service.store.put_s": "s",
    "service.store.hit_s.p50": "s",
    "trace.overhead_ratio": "ratio",
}

Value = Union[float, int, Percentile]


def _git_commit(root: str) -> str:
    """HEAD of the repository at ``root``, or ``unknown`` outside one."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"  # an enclosing repository, not this checkout
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: str, workload: str, seed: int, shape: str) -> dict:
    """The stamp every result carries."""
    from repro.semantics import canonical, reduction

    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "reduction": reduction.reduction_mode(),
        "state_cache": "on" if canonical.cache_enabled() else "off",
        "workload": workload,
        "shape": shape,
        "seed": seed,
    }


def lines(metrics: Mapping[str, Value], units: Mapping[str, str],
          attempted: int, failures: Sequence[str], stamp: Mapping,
          absent: Collection[str] = ()) -> list[str]:
    """The human-readable report; the result line comes after it.
    ``absent`` names layers the workload does not exercise."""
    out = [f"provenance {json.dumps(stamp, sort_keys=True)}"]
    for name, unit in units.items():
        value = metrics[name]
        if name in absent:
            out.append(f"{name} = {value!r} {unit} (layer not exercised on this workload)")
        elif isinstance(value, Percentile):
            out.append(
                f"{name} = {value.value!r} {unit}"
                f" ({value.samples} samples, {value.beyond} beyond it)"
            )
        else:
            out.append(f"{name} = {value!r} {unit}")
    ratio = len(failures) / attempted if attempted else 0.0
    out.append(f"fail_ratio = {ratio!r} ({len(failures)} failed / {attempted} attempted)")
    out.extend(f"FAILED {failure}" for failure in failures)
    return out


def result_line(metrics: Mapping[str, Value], units: Mapping[str, str],
                attempted: int, failed: int) -> str:
    """The one-line JSON result: every metric of ``units``, by name."""
    payload = {
        name: {
            "value": metrics[name].value if isinstance(metrics[name], Percentile)
            else metrics[name],
            "unit": unit,
        }
        for name, unit in units.items()
    }
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": payload,
    })


def record(stamp: Mapping, result: str, failures: Sequence[str]) -> str:
    """The result file: the result line's content under its provenance."""
    return json.dumps(
        {"provenance": dict(stamp), "result": json.loads(result), "failures": list(failures)},
        indent=2,
    ) + "\n"
