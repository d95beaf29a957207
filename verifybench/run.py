"""Run one workload of the verifier benchmark.

From the repository root::

    python3 verifybench/run.py --workload explore-budget --seed 1 --seconds 25 --trace 0

``--workload`` is ``explore-budget``, ``explore-horizon``, ``serve-mixed``
or ``all`` (each in turn, in a child process).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs the traced pass and prints the
per-layer metrics.  The last line of standard output is the JSON
result; the exit status is 1 when any verdict disagrees with the
known-answer table, 130 when interrupted.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("explore-budget", "explore-horizon", "serve-mixed")
SETUP_REPEATS = 3
OUT_DIR = os.path.join(ROOT, ".verifybench-out")
#: Library switches that would change what is measured; the benchmark
#: measures the defaults and stamps them.
MODE_ENV = ("REPRO_REDUCTION", "REPRO_NO_REDUCTION", "REPRO_NO_STATE_CACHE", "REPRO_CERTIFY")


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_setup() -> float:
    import subprocess

    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "verifybench", "setup_probe.py")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def run_explore(args, started):
    """Returns (metrics, attempted, failures, shape description)."""
    from repro.obs.stats import peak_rss_mb

    from verifybench import explore_workload, stats
    from verifybench.inputs import ZOO_PROTOCOLS

    shape = explore_workload.SHAPES[args.workload]
    systems = explore_workload.set_up()
    setup = [time.perf_counter() - started]
    if args.trace:
        # One untraced pass first, so that neither side of
        # trace.overhead_ratio pays the process's first heap growth.
        explore_workload.explore_pass(systems, shape, [ZOO_PROTOCOLS])
    else:
        setup += [_probe_setup() for _ in range(SETUP_REPEATS - 1)]
    baseline = explore_workload.timed_passes(systems, shape, args.seed, args.seconds)
    described = (
        f"Budget({shape.max_states}, {shape.max_depth}) over "
        f"{len(systems)} replicated zoo protocols, {len(baseline.orders)} pass(es)"
    )
    if not args.trace:
        metrics = explore_workload.end_to_end(baseline)
        metrics["setup_s"] = stats.median(setup).value
        metrics["peak_rss_mb"] = peak_rss_mb()
        return metrics, baseline.attempted, baseline.failures, described
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    metrics, traced = explore_workload.per_layer(systems, shape, baseline, spans_path)
    return (
        metrics,
        baseline.attempted + traced.attempted,
        baseline.failures + traced.failures,
        described,
    )


def run_serve(args, started):
    """Returns (metrics, attempted, failures, shape description)."""
    import shutil

    os.environ["REPRO_CERTIFY"] = "1"  # workers inherit it; run_job reads it
    import repro.runtime.worker  # noqa: F401  (imports belong to set-up)
    import repro.service.server  # noqa: F401

    from verifybench import serve_workload, spans, stats
    from verifybench.inputs import serve_plan

    import_s = time.perf_counter() - started
    plan = serve_plan(args.seed, serve_workload.request_count(args.seconds))
    described = (
        f"{len(plan.clients)} closed-loop clients, {serve_workload.WORKERS} workers, "
        f"{len(plan.timed)} timed requests ({len(plan.prewarm)} store hits)"
    )
    workdir = os.path.join(OUT_DIR, f"serve-{os.getpid()}")
    try:
        if not args.trace:
            run = serve_workload.timed_run(ROOT, plan, workdir, setups=SETUP_REPEATS)
            metrics = serve_workload.end_to_end(run)
            metrics["setup_s"] = import_s + stats.median(run.setup_samples).value
            failures = [s.problem for s in run.samples if s.problem is not None]
            return metrics, len(run.samples), failures, described
        untraced = serve_workload.timed_run(ROOT, plan, os.path.join(workdir, "untraced"))
        server_spans = spans.Recorder()
        traced = serve_workload.timed_run(
            ROOT, plan, os.path.join(workdir, "traced"), recorder=server_spans
        )
        prewarmed = set(plan.prewarm)
        computed = [request for request in plan.timed if request not in prewarmed]
        worker_spans = spans.Recorder()
        metrics, problems = serve_workload.worker_side(ROOT, computed, worker_spans)
        metrics.update(serve_workload.serving_layers(untraced))
        own = stats.self_times(server_spans.spans)
        metrics["service.store.lookup_s"] = own.get("service.store.lookup", 0.0)
        metrics["service.store.put_s"] = own.get("service.store.put", 0.0)
        metrics["trace.overhead_ratio"] = traced.wall / untraced.wall
        stem = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}")
        server_spans.write(stem + "-server.jsonl.gz")
        worker_spans.write(stem + "-worker.jsonl.gz")
        samples = untraced.samples + traced.samples
        failures = [s.problem for s in samples if s.problem is not None] + problems
        return metrics, len(samples) + len(computed), failures, described
    finally:
        serve_workload.stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in a child process that is waited for."""
    import json
    import signal
    import subprocess

    merged, attempted, failed, status = {}, 0, 0, 0
    for workload in WORKLOADS:
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            output, _ = child.communicate()
        except BaseException:
            child.send_signal(signal.SIGTERM)
            child.wait()
            raise
        lines = output.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if child.returncode not in (0, 1) or not lines:
            return child.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        status = max(status, child.returncode)
        for name, metric in result["metrics"].items():
            merged[f"{workload}.{name}"] = metric
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged,
    }))
    return status


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"verifybench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    import signal

    signal.signal(signal.SIGTERM, _interrupt)
    for name in MODE_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        if args.workload == "all":
            return run_all(args)
        os.makedirs(OUT_DIR, exist_ok=True)
        runner = run_serve if args.workload == "serve-mixed" else run_explore
        metrics, attempted, failures, described = runner(args, started)
    except KeyboardInterrupt:
        print("verifybench: interrupted", file=sys.stderr)
        return 130

    from verifybench import report

    units = report.PER_LAYER if args.trace else report.END_TO_END
    absent = [name for name in units if name not in metrics]
    for name in absent:
        metrics[name] = 0
    stamp = report.provenance(ROOT, args.workload, args.seed, described)
    result = report.result_line(metrics, units, attempted, len(failures))
    record = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record, "w", encoding="utf-8") as handle:
        handle.write(report.record(stamp, result, failures))
    for line in report.lines(metrics, units, attempted, failures, stamp, absent):
        print(line)
    print(result, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
