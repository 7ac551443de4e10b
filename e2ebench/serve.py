"""The serve-512 workload: a fresh ``repro serve`` under two closed loops.

One benchmark process is the load generator.  Connection A sends only
grey ``components`` requests, connection B only ``histogram`` (k=256);
each alternates the ndjson and shmem wires from one request to the next,
and one request in four repeats one of the connection's last 8 images,
so cache hits are part of the traffic.  The repeats are requests 3 and 6
of every 8, one on each wire: tied to one wire, they would make half of
that wire's requests hits and put its median between hits and misses.

Every request's 512^2 scene is one of 8 fixed darpa-like bases seen
through one of the 8 symmetries of the square, with its non-zero grey
levels permuted; the seed picks base, symmetry and permutation.  That
keeps every new request's content new (no accidental cache hits) while
each reference comes from scipy once per (base, symmetry): a level
permutation does not change which pixels are connected, and a symmetry
moves the components with the pixels.  The bases are the same for every
seed so that a run's cost does not hang on which few scenes it drew.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
import subprocess
import sys
import time

import numpy as np

from e2ebench import measure, reference
from e2ebench.spans import SpanLog

N = 512
K = 256
BASE_SEEDS = tuple(range(1995, 2003))
RECENT = 8  # a repeat picks one of the connection's last RECENT images
REPEAT_AT = (3, 6)  # positions, modulo 8, of the repeated requests
SETUP_PROBES = 5
KERNEL_REPS = 3
SLICES = 5
WIRES = ("ndjson", "shmem")
OPS = ("components", "histogram")
PARAMS = {"components": {"grey": True}, "histogram": {"k": K}}


class Scenes:
    """The bases, their histograms and label digests per symmetry."""

    def __init__(self, cache: reference.ReferenceCache):
        from repro.images.darpa import darpa_like

        self.bases = [darpa_like(N, K, seed=s) for s in BASE_SEEDS]
        self.hists = [reference.histogram_reference(b, K) for b in self.bases]
        self.label_digest = {(b, d): cache.variant_labels(base, d)
                             for b, base in enumerate(self.bases) for d in range(8)}

    def new_spec(self, rng) -> tuple:
        return (int(rng.integers(len(self.bases))), int(rng.integers(8)),
                reference.level_permutation(rng, K))

    def image(self, spec) -> np.ndarray:
        b, d, lut = spec
        return reference.variant(self.bases[b], d, lut)

    def hist_ref(self, spec) -> np.ndarray:
        b, _, lut = spec
        out = np.zeros(K, dtype=np.int64)
        out[lut] = self.hists[b]
        return out


def plan(scenes: Scenes, seed: int, conn_index: int):
    """Endless seeded request stream of one connection: (spec, wire)."""
    rng = np.random.default_rng([seed, conn_index])
    recent: list = []
    i = 0
    while True:
        if i % 8 in REPEAT_AT and recent:
            spec = recent[int(rng.integers(len(recent)))]
        else:
            spec = scenes.new_spec(rng)
            recent = (recent + [spec])[-RECENT:]
        yield spec, WIRES[i % 2]
        i += 1


def _check(scenes: Scenes, op: str, spec, out) -> bool:
    if op == "components":
        return reference.check_labels(out, scenes.label_digest[spec[0], spec[1]])
    return reference.check_histogram(out, scenes.hist_ref(spec))


async def _request(client, scenes: Scenes, op: str, spec, wire: str, log) -> dict:
    """One request, timed from just before send to the decoded reply."""
    image = scenes.image(spec)
    t0 = time.perf_counter()
    try:
        with log.span(f"service.{op}.{wire}") if log else contextlib.nullcontext():
            out = await client.compute(op, image, wire=wire, **PARAMS[op])
        error = None
    except Exception as exc:  # a failed request is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return {"op": op, "wire": wire, "seconds": t1 - t0, "end": t1, "error": error,
            "ok": error is None and _check(scenes, op, spec, out),
            "traced": log is not None}


async def _connection(sock: str, op: str, stream, scenes, deadline, records, log):
    from repro.service.wire import WireClient

    async with WireClient(sock) as client:
        while time.perf_counter() < deadline:
            spec, wire = next(stream)
            records.append(await _request(client, scenes, op, spec, wire, log))


async def _control(sock: str, op: str) -> dict:
    from repro.service.wire import WireClient, raise_reply_error

    async with WireClient(sock) as client:
        return raise_reply_error(await client.request({"op": op}))["result"]


def _wait_for_socket(sock: str, proc, timeout: float = 60.0) -> None:
    """Return once the server accepts connections on ``sock``."""
    t_end = time.perf_counter() + timeout
    while True:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
            try:
                probe.connect(sock)
                return
            except (FileNotFoundError, ConnectionRefusedError):
                pass
        if proc.poll() is not None:
            raise RuntimeError(f"repro serve exited early with code {proc.returncode}")
        if time.perf_counter() > t_end:
            raise TimeoutError("repro serve did not open its socket")
        time.sleep(0.005)


def _serve_argv(sock: str) -> list[str]:
    return [sys.executable, "-m", "repro", "serve", "--socket", sock]


def _stop_server(sock: str, proc, timeout: float = 30.0) -> None:
    """Ask the server to drain and exit; kill it if it does not."""
    from repro.utils.errors import ReproError

    try:
        asyncio.run(_control(sock, "shutdown"))
        proc.wait(timeout=timeout)
    except (OSError, ReproError, subprocess.TimeoutExpired):
        pass
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def _probe_setup(src_dir: str, work: str, scenes: Scenes) -> list[float]:
    """Spawn-to-first-correct-reply seconds of fresh servers."""
    small = scenes.bases[0][:64, :64]
    want = reference.digest(reference.label_reference(small, grey=True))
    seconds = []
    for i in range(SETUP_PROBES):
        sock = os.path.relpath(os.path.join(work, f"probe{i}.sock"))

        def ready(proc):
            from repro.service.wire import compute_over_socket

            _wait_for_socket(sock, proc)
            out = asyncio.run(compute_over_socket(sock, "components", small, grey=True))
            if not reference.check_labels(out, want):
                raise RuntimeError("setup probe: first reply is wrong")

        seconds.append(measure.probe_seconds(
            _serve_argv(sock), env=measure.program_env(src_dir), ready=ready,
            cleanup=lambda proc: _stop_server(sock, proc)))
    return seconds


def _histogram_p50(text: str, name: str, match: str = "") -> float:
    """Upper bound of the bucket holding the median, from a Prometheus
    histogram exposition (only occupied buckets are listed)."""
    buckets = []
    for line in text.splitlines():
        if line.startswith(name + "_bucket") and match in line:
            le = line.split('le="', 1)[1].split('"', 1)[0]
            buckets.append((float(le), float(line.rsplit(" ", 1)[1])))
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    for bound, cum in buckets:
        if cum >= total / 2:
            return bound
    return buckets[-1][0]


def _histogram_mean(text: str, name: str) -> float:
    total = count = 0.0
    for line in text.splitlines():
        if line.startswith(name + "_sum"):
            total += float(line.rsplit(" ", 1)[1])
        elif line.startswith(name + "_count"):
            count += float(line.rsplit(" ", 1)[1])
    return total / count if count else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, repo_root: str,
        src_dir: str, work: str) -> tuple[dict, list[str]]:
    scenes = Scenes(reference.ReferenceCache(
        os.path.join(os.path.dirname(work), ".refcache.json")))
    shm_before = measure.shm_entries()
    setup = _probe_setup(src_dir, work, scenes)
    sock = os.path.relpath(os.path.join(work, "serve.sock"))
    stderr_path = os.path.join(work, "serve.stderr")
    notes: list[str] = []
    records: list[dict] = []
    warm: list[dict] = []
    log = SpanLog()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(_serve_argv(sock), env=measure.program_env(src_dir),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
    try:
        _wait_for_socket(sock, proc)
        warm_rng = np.random.default_rng([seed, 99])

        async def warm_up():
            from repro.service.wire import WireClient

            async with WireClient(sock) as client:
                for op in OPS:
                    for wire in WIRES:
                        spec = scenes.new_spec(warm_rng)
                        warm.append(await _request(client, scenes, op, spec, wire, None))

        asyncio.run(warm_up())

        streams = [plan(scenes, seed, i) for i in range(len(OPS))]

        async def load(deadline, traced):
            await asyncio.gather(*(
                _connection(sock, op, streams[i], scenes, deadline, records,
                            log if traced else None)
                for i, op in enumerate(OPS)))

        cpu0 = measure.cpu_times()
        t_start = time.perf_counter()
        if trace:
            # First half untraced, second half traced: the latency ratio of
            # the two halves is the client-side tracing overhead.
            half = t_start + seconds / 2
            asyncio.run(load(half, False))
            asyncio.run(load(t_start + seconds, True))
        else:
            asyncio.run(load(t_start + seconds, False))
        window = max(r["end"] for r in records) - t_start
        steal = measure.steal_share(cpu0, measure.cpu_times())
        with log.span("service.stats"):
            stats = asyncio.run(_control(sock, "stats"))
        with log.span("service.metrics"):
            prom = asyncio.run(_control(sock, "metrics"))
        workers = measure.child_pids(proc.pid)
        rss_kib = max([measure.vm_hwm_kib(proc.pid)]
                      + [measure.vm_hwm_kib(pid) for pid in workers])
    finally:
        _stop_server(sock, proc)
    leaked = sorted(measure.shm_entries() - shm_before)
    with open(stderr_path) as f:
        tracebacks = measure.count_tracker_tracebacks(f.read())

    failed = [r for r in warm + records if not r["ok"]]
    for r in failed[:5]:
        notes.append(f"failed {r['op']}/{r['wire']}: {r['error'] or 'wrong reply'}")
    if leaked:
        notes.append(f"/dev/shm segments left behind: {leaked}")
    notes.append(f"{len(records)} requests in {window:.1f} s; cpu steal {steal:.1%}; "
                 f"runtime.tracker_tracebacks={tracebacks}; server-side stats "
                 f"include {len(OPS) * len(WIRES)} warm-up requests")
    result = {
        "correct": not failed and not leaked,
        "attempted": len(warm) + len(records),
        "failed": len(failed) + len(leaked),
    }
    m = measure.metric
    if not trace:
        # Rates are the median over SLICES equal parts of the window (by
        # reply time), so a burst of host contention shorter than half the
        # window does not move them.
        edges = [t_start + window * i / SLICES for i in range(SLICES + 1)]
        slices = [[r for r in records if lo < r["end"] <= hi]
                  for lo, hi in zip(edges, edges[1:])]
        result["metrics"] = {
            "components_mpx_per_s": m(measure.median(
                _rate(part, "components") for part in slices), "Mpx/s"),
            "requests_per_s": m(measure.median(
                sum(r["ok"] for r in part) / (window / SLICES) for part in slices), "req/s"),
            # Each wire's latencies form their own cluster, and the traffic
            # is half each, so a pooled median would sit in the gap between
            # them: average the two wires' medians instead.
            "components_p50_s": m(np.mean([measure.median(
                r["seconds"] for r in records
                if r["op"] == "components" and r["wire"] == wire) for wire in WIRES]), "s"),
            "peak_rss_mib": m(rss_kib / 1024, "MiB"),
            "setup_s": m(measure.median(setup), "s"),
        }
        return result, notes

    from e2ebench.runner import kernel_metrics, kernel_speeds

    out = {}
    for op in OPS:
        mine = [r["seconds"] for r in records if r["op"] == op]
        for wire in WIRES:
            out[f"service.{op}.{wire}.p50_s"] = m(measure.median(
                r["seconds"] for r in records if r["op"] == op and r["wire"] == wire), "s")
        value, pct, n = measure.tail(mine)
        out[f"service.{op}.tail_s"] = m(value, "s")
        out[f"service.{op}.tail_pct"] = m(pct, "%")
        out[f"service.{op}.samples"] = m(n, "count")
    out["histogram.mpx_per_s"] = m(_rate(records, "histogram"), "Mpx/s")
    out["service.histogram.p50_s"] = m(measure.median(
        r["seconds"] for r in records if r["op"] == "histogram"), "s")
    out["service.queue_wait.p50_s"] = m(_histogram_p50(prom, "repro_queue_wait_seconds"), "s")
    for op in OPS:
        out[f"service.exec.{op}.p50_s"] = m(
            _histogram_p50(prom, "repro_exec_seconds", f'op="{op}"'), "s")
    out["service.batch_size.mean"] = m(_histogram_mean(prom, "repro_batch_size"), "count")
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out["service.cache.hit_ratio"] = m(cache.get("hits", 0) / lookups if lookups else 0.0,
                                       "ratio")
    out["service.coalesced"] = m(stats["service"]["coalesced"], "count")
    out["service.shed"] = m(stats.get("admission", {}).get("shed", 0), "count")
    out["service.errors"] = m(stats["service"]["errors"], "count")

    kernel = kernel_speeds({"tiles": scenes.bases[:4], "reps": KERNEL_REPS, "k": K,
                            "grey": True}, log)
    out.update(kernel_metrics(kernel))

    plain = [r["seconds"] for r in records if not r["traced"]]
    traced = [r["seconds"] for r in records if r["traced"]]
    out["trace.overhead_frac"] = m(
        np.mean(traced) / np.mean(plain) - 1.0 if plain and traced else 0.0, "ratio")
    out["runtime.tracker_tracebacks"] = m(tracebacks, "count")
    result["metrics"] = out
    return result, notes


def _rate(records: list[dict], op: str) -> float:
    mine = [r for r in records if r["op"] == op]
    return N * N * sum(r["ok"] for r in mine) / 1e6 / sum(r["seconds"] for r in mine)
