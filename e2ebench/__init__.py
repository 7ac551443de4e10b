"""End-to-end benchmark of the repro package.

Run one workload with ``python3 e2ebench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; see
``e2ebench/README.md`` for the workloads, the metrics and the checks.
"""
