"""The repository benchmark: four simulator workloads, host-cost
end-to-end metrics and a traced per-layer breakdown.

``run.py`` measures one workload (the command ``BENCHMARK.json``
names); ``python -m benchmarks.suite`` runs them all, one fresh
process at a time; ``compare.py`` compares two sets of records.  See
``README.md``.
"""
