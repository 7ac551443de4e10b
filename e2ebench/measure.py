"""Host record, statistics, memory and hygiene probes, result output."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

#: Percentiles offered as a tail; the reported one is the highest that
#: still has at least TAIL_MIN_BEYOND samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least TAIL_MIN_BEYOND samples beyond it; (0, 0, n) when too few."""
    values = sorted(values)
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return float(np.percentile(values, pct)), pct, n
    return 0.0, 0.0, n


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (jiffies per state)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of all CPU time the hypervisor stole between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already inside user/nice
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def host_record(repo_root: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def vm_hwm_kib(pid: int | str = "self") -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def child_pids(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(x) for x in f.read().split()]
    except OSError:
        return []


def become_subreaper() -> bool:
    """Make this process the parent of every orphaned descendant (Linux
    PR_SET_CHILD_SUBREAPER), so :func:`stop_descendants` can find and reap
    them even when the process that started them has already exited."""
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _own_children() -> list[int]:
    kids = []
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                kids.extend(int(x) for x in f.read().split())
        except OSError:
            pass
    return kids


def _reap_exited() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def start_resource_tracker(stderr_path: str) -> None:
    """Start this process's multiprocessing resource tracker with its stderr
    on ``stderr_path``.  Processes spawned from here share it, so what it
    reports about their shared memory lands beside their own stderr."""
    from multiprocessing import resource_tracker

    fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    saved = os.dup(2)
    sys.stderr.flush()
    os.dup2(fd, 2)
    try:
        resource_tracker.ensure_running()
    finally:
        os.dup2(saved, 2)
        os.close(saved)
        os.close(fd)


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, if it started
    one, and wait for it to end.  Closing its pipe is how it learns that no
    process uses it any more."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None or pid is None:
        return
    try:
        os.close(fd)
    except OSError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass
    tracker._fd = tracker._pid = None


def stop_descendants(grace: float = 10.0) -> list[str]:
    """Wait up to ``grace`` seconds for every child process (orphaned
    descendants included, see :func:`become_subreaper`) to exit, then kill
    the rest; return once none is left.  Returns the command lines of the
    processes that had to be killed."""
    stop_resource_tracker()
    deadline = time.monotonic() + grace
    killed: list[str] = []
    while True:
        _reap_exited()
        kids = _own_children()
        if not kids:
            return killed
        if time.monotonic() < deadline:
            time.sleep(0.05)
            continue
        for pid in kids:
            try:
                with open(f"/proc/{pid}/cmdline") as f:
                    killed.append(f.read().replace("\0", " ").strip() or str(pid))
                os.kill(pid, 9)
            except OSError:
                pass
        for pid in kids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def count_tracker_tracebacks(text: str) -> int:
    """Tracebacks whose frames run through multiprocessing's resource tracker."""
    count = 0
    for block in text.split("Traceback (most recent call last):")[1:]:
        frames = block.split("\nTraceback")[0]
        if "resource_tracker" in frames:
            count += 1
    return count


def probe_seconds(argv: list[str], *, env: dict, ready, cleanup=None,
                  timeout: float = 60.0) -> float:
    """Seconds from spawning ``argv`` until ``ready(proc)`` returns; the
    process is then stopped (``cleanup(proc)``, else terminated) and reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    try:
        ready(proc)
        seconds = time.perf_counter() - t0
        if cleanup is not None:
            cleanup(proc)
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    return seconds


def program_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    return env


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(result: dict, host: dict, notes: list[str]) -> None:
    """Print the host record and notes, then the result as the last line."""
    print("host " + json.dumps(host, sort_keys=True))
    for note in notes:
        print("note " + note)
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)
