"""The verifier benchmark: seeded workloads over the public API of ``repro``.

Run it from the repository root with ``python3 verifybench/run.py``; see
``verifybench/README.md`` for the workloads and every metric.
"""
