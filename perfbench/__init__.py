"""The repository benchmark: open-loop TCP workloads with a traced per-layer breakdown.

Run it with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
