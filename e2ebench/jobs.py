"""The batch-2048 and out-of-core-4096 workloads: passes over a work list.

One benchmark process generates the images, computes their references
and drives a separate runner process (:mod:`e2ebench.runner`) through a
fixed work list, pass after pass, for the whole passes that come
closest to the window.  Rates are taken over whole passes, so every (image, engine)
key weighs equally.  In a traced run, passes alternate untraced and
traced; the traced ones give the per-layer spans and the pair gives the
tracing overhead.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import sys
import time

import numpy as np

from e2ebench import measure, reference
from e2ebench.runner import kernel_metrics
from e2ebench.spans import DARRAY_VERBS, job_breakdown

TRANSPORTS = ("local", "shmem", "mmap")
K = 256
#: Per-call ceiling; a call slower than this means the run cannot finish.
CALL_TIMEOUT_S = 150.0
SETUP_PROBES = 5
KERNEL_REPS = 3


def _write_pgm(path: str, image: np.ndarray) -> None:
    """Binary P5 greymap, written by the benchmark (not the program)."""
    maxval = max(int(image.max()), 1)
    with open(path, "wb") as f:
        f.write(f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode())
        f.write(np.ascontiguousarray(image, dtype=np.uint8).tobytes())


def batch_inputs(seed: int, work: str, cache: reference.ReferenceCache):
    """Pattern 4, the dual spiral and a seeded darpa-like scene at 2048^2.

    The scene is the default darpa-like one with its non-zero grey levels
    permuted by the seed and turned by 0 or 180 degrees.  Neither changes
    its components or its row runs, so its cost does not depend on the
    seed, while its content (and so any cache of it) does.
    """
    from repro.images.darpa import darpa_like
    from repro.images.patterns import binary_test_image

    n = 2048
    rng = np.random.default_rng(seed)
    base = darpa_like(n, K)
    d = int(rng.choice([0, 2]))
    images = {}
    for name, img in (("pattern4", binary_test_image(4, n)),
                      ("spiral", binary_test_image(9, n))):
        images[name] = (img, False, cache.labels(img, grey=False))
    images["darpa"] = (reference.variant(base, d, reference.level_permutation(rng, K)),
                       True, cache.variant_labels(base, d))
    jobs = []
    for name, (_, grey, _) in images.items():
        for transport in ("local", "shmem"):
            jobs.append(dict(op="components", engine="darray", transport=transport,
                             image=name, p=4, workers=2, grey=grey))
        jobs.append(dict(op="components", engine="sim", transport="sim",
                         image=name, p=4, grey=grey))
        for transport in ("local", "shmem"):
            jobs.append(dict(op="histogram", engine="darray", transport=transport,
                             image=name, p=4, workers=2, k=K))
        jobs.append(dict(op="histogram", engine="sim", transport="sim",
                         image=name, p=4, k=K))
    tiles = [img[r:r + n // 2, c:c + n // 2]
             for img, grey, _ in images.values() if not grey
             for r in (0, n // 2) for c in (0, n // 2)]
    return images, jobs, tiles, []


def outofcore_inputs(seed: int, work: str, cache: reference.ReferenceCache):
    """Pattern 4 and the dual spiral at 4096^2, written once as binary PGMs
    that the mmap transport maps (``seed`` does not change them)."""
    from repro.images.patterns import binary_test_image

    n = 4096
    images, jobs = {}, []
    for index, name in ((4, "pattern4"), (9, "spiral")):
        img = binary_test_image(index, n).astype(np.uint8)
        path = os.path.join(work, f"{name}.pgm")
        _write_pgm(path, img)
        images[path] = (img, False, cache.labels(img, grey=False))
        for op in ("components", "histogram"):
            jobs.append(dict(op=op, engine="darray", transport="mmap", image=path,
                             p=16, resident_tiles=1, grey=False, k=K))
    step = n // 4
    tiles = [img[r:r + step, c:c + step] for img, _, _ in images.values()
             for r, c in ((0, 0), (step, step), (2 * step, step), (3 * step, 3 * step))]
    notes = ["outofcore-4096 reads PGMs that sit in the page cache: it measures "
             "no real disk I/O"]
    return images, jobs, tiles, notes


WORKLOADS = {"batch-2048": batch_inputs, "outofcore-4096": outofcore_inputs}


class Runner:
    """Parent-side handle on the runner process."""

    def __init__(self, repo_root: str, src_dir: str, stderr_path: str):
        # The runner and its pool workers use this process's resource
        # tracker; its tracebacks are the program's and are counted.
        measure.start_resource_tracker(stderr_path)
        ctx = mp.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_runner_main,
                                args=(child, repo_root, src_dir, stderr_path))
        self.proc.start()
        child.close()

    def call(self, *msg):
        self.conn.send(msg)
        if not self.conn.poll(CALL_TIMEOUT_S):
            raise TimeoutError(f"runner gave no answer to {msg[0]!r} "
                               f"within {CALL_TIMEOUT_S} s")
        return self.conn.recv()

    def close(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(30)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()


def _runner_main(conn, repo_root, src_dir, stderr_path):
    sys.path.insert(0, repo_root)
    from e2ebench import runner

    runner.serve(conn, src_dir, stderr_path)


def _check(job: dict, result: dict, refs: dict, spill_dir: str | None) -> str | None:
    """None when the call's output matches its reference and left nothing
    behind; else the reason it failed."""
    if result["error"]:
        return result["error"]
    if result["degraded"]:
        return "degraded run (DegradedRunWarning)"
    ref = refs[job["image"]][job["op"]]
    if job["op"] == "histogram":
        ok = reference.check_histogram(result["output"], ref)
    else:
        path = result["labels_file"]
        if path.endswith(".npy"):
            labels = np.load(path, mmap_mode="r")
        else:
            labels = np.memmap(path, dtype=np.int64, mode="r",
                               shape=refs[job["image"]]["shape"])
        ok = reference.check_labels(labels, ref)
        del labels
        os.remove(path)
    if spill_dir is not None:
        # A caller's spill dir keeps only labels.bin (removed above).
        left = os.listdir(spill_dir)
        shutil.rmtree(spill_dir, ignore_errors=True)
        if left:
            return f"spill dir not clean after the job: {sorted(left)}"
    return None if ok else "output differs from the reference"


def _one_call(runner: Runner, job: dict, refs: dict, work: str, seq: int) -> dict:
    job = dict(job, out=os.path.join(work, f"out-{seq}.npy"))
    spill = None
    if job["transport"] == "mmap":
        spill = os.path.join(work, f"spill-{seq}")
        os.makedirs(spill)
        job["spill_dir"] = spill
    result = runner.call("job", job)
    reason = _check(job, result, refs, spill)
    return {**result, "job": job, "reason": reason, "ok": reason is None,
            "pixels": refs[job["image"]]["pixels"]}


def _probe_setup(src_dir: str) -> list[float]:
    argv = [sys.executable, "-c",
            "import repro.core, repro.darray, repro.darray.shmem_transport, "
            "repro.darray.mmap_transport; print('ready', flush=True)"]

    def ready(proc):
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError("setup probe did not import the entry points")

    env = measure.program_env(src_dir)
    return [measure.probe_seconds(argv, env=env, ready=ready) for _ in range(SETUP_PROBES)]


def run(workload: str, seed: int, seconds: float, trace: bool, repo_root: str,
        src_dir: str, work: str) -> tuple[dict, list[str]]:
    cache = reference.ReferenceCache(os.path.join(os.path.dirname(work), ".refcache.json"))
    images, jobs, tiles, notes = WORKLOADS[workload](seed, work, cache)
    # Warm-up on 256^2 crops: lazy imports and first-call set-up are paid
    # outside the window.
    warm = {}
    for name, (img, grey, _) in images.items():
        crop = np.ascontiguousarray(img[:256, :256])
        warm[name + ".warm"] = (crop, grey, cache.labels(crop, grey=grey))
        if name.endswith(".pgm"):
            _write_pgm(name + ".warm", crop)
    refs = {name: {"components": labels, "histogram": reference.histogram_reference(img, K),
                   "pixels": int(img.size), "shape": img.shape}
            for name, (img, _, labels) in {**images, **warm}.items()}

    setup = _probe_setup(src_dir)
    shm_before = measure.shm_entries()
    stderr_path = os.path.join(work, "runner.stderr")
    runner = Runner(repo_root, src_dir, stderr_path)
    passes: list[tuple[bool, list[dict]]] = []
    warm_calls = []
    peaks_kib = []
    seq = 0
    try:
        for name, (img, _, _) in {**images, **warm}.items():
            if ".pgm" not in name:
                runner.call("image", name, img)
        for job in jobs:
            seq += 1
            warm_calls.append(_one_call(runner, dict(job, image=job["image"] + ".warm"),
                                        refs, work, seq))

        cpu0 = measure.cpu_times()
        t_start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            if trace:
                runner.call("trace", traced)
            runner.call("rss_reset")
            results = []
            for job in jobs:
                seq += 1
                results.append(_one_call(runner, job, refs, work, seq))
            passes.append((traced, results))
            peaks_kib.append(runner.call("rss"))
            elapsed = time.perf_counter() - t_start
            if trace and len(passes) < 2:
                continue
            # Whole passes only: stop unless the next one would end closer
            # to the window's end than this one did.
            if elapsed + elapsed / len(passes) / 2 > seconds:
                break
        window = time.perf_counter() - t_start
        steal = measure.steal_share(cpu0, measure.cpu_times())
        if trace:
            runner.call("trace", False)
            kernel = runner.call("kernels", {"tiles": tiles, "reps": KERNEL_REPS,
                                             "k": K, "grey": False})
    finally:
        runner.close()
    leaked = sorted(measure.shm_entries() - shm_before)
    # Only now: on exit the tracker unlinks segments it still holds, which
    # would hide a leak from the check above.
    measure.stop_resource_tracker()
    with open(stderr_path) as f:
        tracebacks = measure.count_tracker_tracebacks(f.read())

    calls = [r for _, results in passes for r in results]
    failed = [r for r in warm_calls + calls if not r["ok"]]
    for r in failed[:5]:
        notes.append(f"failed {r['job']['engine']}/{r['job']['transport']} "
                     f"{r['job']['op']} on {os.path.basename(r['job']['image'])}: "
                     f"{r['reason']}")
    if leaked:
        notes.append(f"/dev/shm segments left behind: {leaked}")
    notes.append("runner peak RSS per pass (MiB): "
                 + ", ".join(f"{kib / 1024:.0f}" for kib in peaks_kib))
    notes.append(f"{len(passes)} pass(es) of {len(jobs)} calls in {window:.1f} s; "
                 f"cpu steal {steal:.1%}; runtime.tracker_tracebacks={tracebacks}")
    result = {
        "correct": not failed and not leaked,
        "attempted": len(warm_calls) + len(calls),
        "failed": len(failed) + len(leaked),
    }
    if trace:
        result["metrics"] = _layer_metrics(passes, kernel, tracebacks)
    else:
        result["metrics"] = _e2e_metrics(passes, peaks_kib, setup)
    return result, notes


def _rate(calls: list[dict], op: str) -> float:
    mine = [r for r in calls if r["job"]["op"] == op]
    pixels = sum(r["pixels"] for r in mine if r["ok"])
    return pixels / 1e6 / sum(r["seconds"] for r in mine)


def _e2e_metrics(passes, peaks_kib: list[int], setup: list[float]) -> dict:
    """Rates and peak RSS are taken per pass, then the median over passes,
    so a burst of host contention shorter than half the window does not
    move them."""
    m = measure.metric
    per_pass = [results for _, results in passes]
    return {
        "components_mpx_per_s": m(measure.median(
            _rate(calls, "components") for calls in per_pass), "Mpx/s"),
        "requests_per_s": m(measure.median(
            sum(r["ok"] for r in calls) / sum(r["seconds"] for r in calls)
            for calls in per_pass), "req/s"),
        "components_p50_s": m(_p50_over_keys(per_pass), "s"),
        "peak_rss_mib": m(measure.median(peaks_kib) / 1024, "MiB"),
        "setup_s": m(measure.median(setup), "s"),
    }


def _p50_over_keys(per_pass) -> float:
    """Mean over (image, engine) keys of each key's median components call.
    The keys' latencies form separate clusters, so a pooled median would
    jump between them from run to run."""
    by_key: dict = {}
    for calls in per_pass:
        for r in calls:
            if r["job"]["op"] == "components":
                key = (r["job"]["image"], r["job"]["transport"])
                by_key.setdefault(key, []).append(r["seconds"])
    return float(np.mean([measure.median(v) for v in by_key.values()]))


def _layer_metrics(passes, kernel: dict, tracebacks: int) -> dict:
    m = measure.metric
    plain = [r for traced, results in passes if not traced for r in results]
    traced_calls = [r for traced, results in passes if traced for r in results]

    out = kernel_metrics(kernel)
    out["histogram.mpx_per_s"] = m(_rate(plain, "histogram"), "Mpx/s")
    for t in TRANSPORTS:
        mine = [r for r in traced_calls if r["job"]["transport"] == t]
        jobs = [j for r in mine for j in job_breakdown(r["spans"])]
        for verb in DARRAY_VERBS:
            out[f"darray.{t}.{verb}_s"] = m(measure.median(
                j["verbs"][verb] for j in jobs if verb in j["verbs"]), "s")
        wall = sum(j["wall"] for j in jobs)
        out[f"darray.{t}.unattributed_frac"] = m(
            sum(j["unattributed"] for j in jobs) / wall if wall else 0.0, "ratio")
        comps = [r for r in plain + traced_calls
                 if r["job"]["transport"] == t and r["job"]["op"] == "components"
                 and r.get("stats")]
        for field in ("border_bytes", "change_bytes"):
            out[f"darray.{t}.{field}"] = m(
                measure.median(r["stats"][field] for r in comps), "bytes")
        if t == "mmap":
            for field in ("spill_reads", "spill_writes", "resident_highwater"):
                out[f"darray.mmap.{field}"] = m(
                    measure.median(r["stats"][field] for r in comps), "count")

    def comp_seconds(transport):
        return sum(r["seconds"] for r in plain
                   if r["job"]["transport"] == transport and r["job"]["op"] == "components")

    shmem = comp_seconds("shmem")
    out["darray.shmem.speedup_vs_local"] = m(
        comp_seconds("local") / shmem if shmem else 0.0, "ratio")
    sims = [r for r in plain if r["job"]["engine"] == "sim"]
    for op in ("components", "histogram"):
        out[f"sim.{op}_s"] = m(measure.median(
            r["seconds"] for r in sims if r["job"]["op"] == op), "s")
    first_pass = passes[0][1]
    out["sim.modeled_s"] = m(sum(r.get("modeled_s", 0.0) for r in first_pass
                                 if r["job"]["engine"] == "sim"), "s")

    # Passes alternate untraced, traced: compare as many of each.
    untraced_passes = [results for traced, results in passes if not traced]
    traced_passes = [results for traced, results in passes if traced]
    pairs = min(len(untraced_passes), len(traced_passes))
    base = sum(r["seconds"] for results in untraced_passes[:pairs] for r in results)
    with_trace = sum(r["seconds"] for results in traced_passes[:pairs] for r in results)
    out["trace.overhead_frac"] = m(with_trace / base - 1.0, "ratio")
    out["runtime.tracker_tracebacks"] = m(tracebacks, "count")
    return out
