"""Real-runtime backends: wall-clock of serial vs multiprocessing.

Measures the actual (not simulated) execution of the histogram and CC
algorithms: the serial kernels (:mod:`repro.kernels`) against the
distributed array over shared memory (:mod:`repro.darray`, ``shmem``
transport) with 2 and 4 tiles on as many worker processes.  On a
multi-core host the process rows should approach core-count speedups
for large images;
on a single-core host (like some CI containers) it documents the
pool's overhead instead -- the host's core count is recorded with the
artifact so readers can interpret the numbers.
"""

import os
import time

from benchmarks.conftest import emit
from benchmarks.emit import emit_json
from repro.baselines import run_label
from repro.darray import darray_components, darray_histogram
from repro.images import darpa_like
from repro.kernels import get as get_kernel

N = 512
K = 256


def _wall(fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _shmem(workers):
    return dict(p=workers, transport="shmem", workers=workers)


def _measure():
    img = darpa_like(N, K)
    rows = {}
    rows["histogram serial"] = _wall(get_kernel("histogram"), img, K)
    rows["histogram process x2"] = _wall(darray_histogram, img, K, **_shmem(2))
    rows["histogram process x4"] = _wall(darray_histogram, img, K, **_shmem(4))
    rows["components serial"] = _wall(get_kernel("tile_label"), img, grey=True)
    rows["components process x2"] = _wall(darray_components, img, grey=True, **_shmem(2))
    rows["components process x4"] = _wall(darray_components, img, grey=True, **_shmem(4))
    return rows


def test_runtime_backends(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    cores = os.cpu_count() or 1
    lines = [f"Runtime backends on this host ({cores} cores), {N}x{N}, wall time"]
    for name, t in rows.items():
        lines.append(f"  {name:<26} {t * 1e3:9.2f} ms")
    if cores == 1:
        lines.append("  NOTE: single-core host; process rows cannot speed up here.")
    emit("runtime_backends", "\n".join(lines))
    emit_json(
        "runtime_backends",
        params={"n": N, "k": K, "clock": "wall"},
        rows=[{"name": name, "wall_s": t} for name, t in rows.items()],
        notes="process rows cannot speed up on a single-core host"
        if cores == 1
        else "",
    )

    # Correctness regardless of backend was asserted in tests; here just
    # sanity-check the measurements exist and are positive.
    assert all(t > 0 for t in rows.values())
    if cores >= 4:
        # Expect at least some speedup for the embarrassingly parallel tally.
        assert rows["histogram process x4"] < rows["histogram serial"] * 0.9


def test_components_serial_baseline(benchmark):
    """pytest-benchmark timing of the vectorized sequential CC engine."""
    img = darpa_like(N, K)
    labels = benchmark(run_label, img, grey=True)
    assert labels.shape == (N, N)
