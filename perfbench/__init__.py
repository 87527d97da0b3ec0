"""Seeded end-to-end benchmark of the quotmotives CLI, with per-layer tracing.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``run.py`` for the output.
"""
