"""Benchmark for bornlab: seeded workloads, correctness gates and layer tracing.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
