"""The repository benchmark: end-to-end workloads plus traced per-layer timing.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see :mod:`perfbench.drivers`) and
prints one JSON result line.  The benchmark never edits ``src/``: the
per-layer spans come from wrappers that :mod:`perfbench.tracing`
installs around the program's public functions for the traced run only.
"""
