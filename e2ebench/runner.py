"""The process that runs the program for the batch and out-of-core workloads.

It neither generates inputs nor computes references: the benchmark
process sends it images (or PGM paths) and jobs over a pipe, it times
each public call, writes label outputs to files for the benchmark to
check, and answers with the seconds, the small outputs and, in a traced
pass, the spans.  Its stderr goes to a file so the benchmark can count
resource-tracker tracebacks without filtering anything.
"""

from __future__ import annotations

import ctypes
import gc
import os
import sys
import time
import warnings
from dataclasses import asdict

import numpy as np


def serve(conn, src_dir: str, stderr_path: str) -> None:
    fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 2)
    os.close(fd)
    sys.path.insert(0, src_dir)
    from e2ebench.measure import vm_hwm_kib
    from e2ebench.spans import SpanLog, instrument_darray

    log = SpanLog()
    restore = None
    images: dict[str, np.ndarray] = {}
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "image":
                images[msg[1]] = msg[2]
                conn.send(None)
            elif kind == "trace":
                if msg[1] and restore is None:
                    restore = instrument_darray(log)
                elif not msg[1] and restore is not None:
                    restore()
                    restore = None
                conn.send(None)
            elif kind == "job":
                conn.send(run_job(msg[1], images, log, traced=restore is not None))
            elif kind == "kernels":
                conn.send(kernel_speeds(msg[1], log))
            elif kind == "rss_reset":
                reset_peak_rss()
                conn.send(None)
            elif kind == "rss":
                conn.send(vm_hwm_kib())
    finally:
        if restore is not None:
            restore()
        conn.close()


def reset_peak_rss() -> None:
    """Collect cyclic garbage, hand freed heap back to the OS and restart
    VmHWM from the current RSS, so each pass reports its own peak rather
    than what earlier passes left for the garbage collector."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def run_job(job: dict, images: dict, log, *, traced: bool) -> dict:
    """Run one public call of the program; never raises."""
    from repro.core import parallel_components, parallel_histogram
    from repro.darray import darray_components, darray_histogram
    from repro.utils.errors import DegradedRunWarning

    source = images[job["image"]] if job["image"] in images else job["image"]
    op, engine = job["op"], job["engine"]
    out: dict = {"error": None, "output": None, "labels_file": None}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            with log.span(f"{engine}:{op}"):
                if engine == "sim" and op == "components":
                    res = parallel_components(source, job["p"], grey=job["grey"])
                elif engine == "sim":
                    res = parallel_histogram(source, job["k"], job["p"])
                elif op == "components":
                    res = darray_components(
                        source, p=job["p"], transport=job["transport"],
                        grey=job["grey"], workers=job.get("workers"),
                        spill_dir=job.get("spill_dir"),
                        resident_tiles=job.get("resident_tiles", 1),
                    )
                else:
                    res = darray_histogram(
                        source, job["k"], p=job["p"], transport=job["transport"],
                        workers=job.get("workers"), spill_dir=job.get("spill_dir"),
                        resident_tiles=job.get("resident_tiles", 1),
                    )
        except Exception as exc:  # a failed call is a result, not a crash
            res = None
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["seconds"] = time.perf_counter() - t0
    out["degraded"] = any(issubclass(w.category, DegradedRunWarning) for w in caught)
    spans = log.take()
    out["spans"] = spans if traced else []
    if res is None:
        return out
    if engine == "sim":
        out["modeled_s"] = float(res.report.elapsed_s)
        if op == "components":
            np.save(job["out"], res.labels)
            out["labels_file"] = job["out"]
        else:
            out["output"] = np.asarray(res.histogram)
    elif op == "components":
        out["stats"] = asdict(res.stats)
        if isinstance(res.labels, np.memmap):
            out["labels_file"] = str(res.labels.filename)  # checked in place
        else:
            np.save(job["out"], res.labels)
            out["labels_file"] = job["out"]
    else:
        out["output"] = np.asarray(res)
    return out


def kernel_speeds(spec: dict, log) -> dict:
    """Seconds of the program's kernels and of their speed-of-light
    references over ``spec['tiles']``, each the median of ``spec['reps']``
    calls.  Grey tiles are labelled by scipy one level at a time."""
    from e2ebench.reference import component_ids
    from repro.kernels import get

    tile_label = get("tile_label")
    histogram = get("histogram")
    grey = spec["grey"]
    calls = {
        "kernels.tile_label": lambda t: tile_label(t, connectivity=8, grey=grey),
        "scipy.label": lambda t: component_ids(t, grey=grey),
        "kernels.histogram": lambda t: histogram(t, spec["k"]),
        "numpy.bincount": lambda t: np.bincount(t.ravel(), minlength=spec["k"]),
    }
    seconds = {name: 0.0 for name in calls}
    pixels = 0
    for tile in spec["tiles"]:
        pixels += tile.size
        for name, call in calls.items():
            times = []
            for _ in range(spec["reps"]):
                with log.span(name):
                    call(tile)
                times.append(log.spans[-1].end - log.spans[-1].start)
            seconds[name] += float(np.median(times))
    log.take()
    return {"seconds": seconds, "pixels": pixels}


def kernel_metrics(kernel: dict) -> dict:
    """Per-layer kernel metrics from :func:`kernel_speeds`' answer."""
    sec, mpx = kernel["seconds"], kernel["pixels"] / 1e6
    return {
        "kernels.tile_label.mpx_per_s": {
            "value": mpx / sec["kernels.tile_label"], "unit": "Mpx/s"},
        "kernels.tile_label.scipy_ratio": {
            "value": sec["kernels.tile_label"] / sec["scipy.label"], "unit": "ratio"},
        "kernels.histogram.mpx_per_s": {
            "value": mpx / sec["kernels.histogram"], "unit": "Mpx/s"},
        "kernels.histogram.bincount_ratio": {
            "value": sec["kernels.histogram"] / sec["numpy.bincount"], "unit": "ratio"},
    }
