"""Workloads, metrics and the predictions that tie the layers to them.

``BENCHMARK.json`` holds the workloads and the metrics with their units
and bounds; this module holds the same names plus, for every per-layer
metric, which end-to-end metric it should move, on which workload, and
where it should not.  ``test_bench.py`` keeps the two in step.

A per-layer metric reads 0 on a workload where its layer does not run.
"""

from __future__ import annotations

WORKLOADS = {
    "batch-2048": "kernel-bound: darray local/shmem and the BDM simulator on pattern 4, "
                  "the spiral and a seeded grey darpa-like scene; shmem vs local is the "
                  "only 2-CPU scaling measurement",
    "outofcore-4096": "the same darray engine out of core: mmap transport, p=16, one "
                      "resident tile, spill I/O, 4 merge rounds, streaming finalize and gather",
    "serve-512": "repro serve under 2 closed loops (components / histogram), alternating "
                 "ndjson and shmem wires, 1 in 4 requests repeated: the service path and cache",
}

#: name -> (unit, better, bound)
END_TO_END = {
    "components_mpx_per_s": ("Mpx/s", "higher", 0.25),
    "requests_per_s": ("req/s", "higher", 0.25),
    "components_p50_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
}

BATCH, OOC, SERVE = "batch-2048", "outofcore-4096", "serve-512"


def _layer(unit, moves, on, not_on, not_moves=()):
    """``moves`` the end-to-end metrics a change to this layer should move,
    ``on`` the workloads where it should, ``not_on`` the workloads where it
    should not, and ``not_moves`` metrics it should leave alone anywhere."""
    return {"unit": unit, "moves": moves, "on": on, "not_on": not_on,
            "not_moves": list(not_moves)}


def _per_layer() -> dict:
    rows = {
        "kernels.tile_label.mpx_per_s": _layer(
            "Mpx/s", ["components_mpx_per_s", "components_p50_s"], [BATCH, OOC, SERVE], []),
        "kernels.tile_label.scipy_ratio": _layer(
            "ratio", ["components_mpx_per_s", "components_p50_s"], [BATCH, OOC, SERVE], []),
        "kernels.histogram.mpx_per_s": _layer(
            "Mpx/s", ["requests_per_s"], [BATCH, OOC], [SERVE],
            ["components_mpx_per_s", "components_p50_s"]),
        "kernels.histogram.bincount_ratio": _layer(
            "ratio", ["requests_per_s"], [BATCH, OOC], [SERVE],
            ["components_mpx_per_s", "components_p50_s"]),
        # The rate of whole histogram calls; per-layer because host
        # contention moved it by more than the largest allowed bound.
        "histogram.mpx_per_s": _layer(
            "Mpx/s", ["requests_per_s"], [BATCH, OOC, SERVE], [],
            ["components_mpx_per_s", "components_p50_s"]),
    }
    for t, on in (("local", [BATCH]), ("shmem", [BATCH]), ("mmap", [OOC])):
        for verb in ("open", "label", "border", "solve", "publish", "finalize",
                     "gather", "close", "histogram"):
            moves = (["requests_per_s"] if verb == "histogram"
                     else ["components_mpx_per_s"])
            rows[f"darray.{t}.{verb}_s"] = _layer("s", moves, on, [SERVE])
        rows[f"darray.{t}.unattributed_frac"] = _layer("ratio", [], on, [])
        for field in ("border_bytes", "change_bytes"):
            rows[f"darray.{t}.{field}"] = _layer(
                "bytes", ["components_mpx_per_s", "peak_rss_mib"], on, [SERVE])
    for field in ("spill_reads", "spill_writes", "resident_highwater"):
        rows[f"darray.mmap.{field}"] = _layer(
            "count", ["components_mpx_per_s", "peak_rss_mib"], [OOC], [BATCH])
    rows["darray.shmem.speedup_vs_local"] = _layer(
        "ratio", ["components_mpx_per_s"], [BATCH], [OOC])
    for name in ("components_s", "histogram_s", "modeled_s"):
        rows[f"sim.{name}"] = _layer(
            "s", ["components_mpx_per_s", "requests_per_s"], [BATCH], [OOC, SERVE])
    service = ["requests_per_s", "components_p50_s"]
    for op in ("components", "histogram"):
        for wire in ("ndjson", "shmem"):
            rows[f"service.{op}.{wire}.p50_s"] = _layer("s", service, [SERVE], [BATCH, OOC])
        rows[f"service.{op}.tail_s"] = _layer("s", service, [SERVE], [BATCH, OOC])
        rows[f"service.{op}.tail_pct"] = _layer("%", [], [SERVE], [])
        rows[f"service.{op}.samples"] = _layer("count", [], [SERVE], [])
    rows["service.histogram.p50_s"] = _layer("s", service, [SERVE], [BATCH, OOC])
    for name, unit in (("queue_wait.p50_s", "s"), ("exec.components.p50_s", "s"),
                       ("exec.histogram.p50_s", "s"), ("batch_size.mean", "count"),
                       ("cache.hit_ratio", "ratio"), ("coalesced", "count"),
                       ("shed", "count"), ("errors", "count")):
        rows[f"service.{name}"] = _layer(unit, ["requests_per_s"], [SERVE], [BATCH, OOC])
    rows["runtime.tracker_tracebacks"] = _layer("count", [], [BATCH, SERVE], [])
    rows["trace.overhead_frac"] = _layer("ratio", [], [BATCH, OOC, SERVE], [])
    return rows


PER_LAYER = _per_layer()

_HIGHER_IS_BETTER = ("mpx_per_s", "speedup_vs_local", "hit_ratio", "samples",
                     "tail_pct", "batch_size.mean", "coalesced")


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": 25,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": row["unit"],
                       "better": "higher" if n.endswith(_HIGHER_IS_BETTER) else "lower"}
                      for n, row in PER_LAYER.items()],
    }
