"""Tests of the benchmark itself: python3 -m pytest e2ebench/test_bench.py"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
sys.path.insert(0, REPO_ROOT)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from e2ebench import catalog, measure, reference, serve  # noqa: E402
from e2ebench.spans import Span, job_breakdown, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _scene(n=64, seed=3):
    from repro.images.darpa import darpa_like

    return darpa_like(n, 256, seed=seed)


@pytest.mark.parametrize("grey", [False, True])
def test_reference_rejects_one_wrong_pixel(grey):
    image = _scene() if grey else (_scene() % 3 == 0).astype(np.int32)
    ref = reference.label_reference(image, grey=grey)
    want = reference.digest(ref)
    assert reference.check_labels(ref.copy(), want)
    wrong = ref.copy()
    y, x = np.argwhere(wrong > 0)[len(np.argwhere(wrong > 0)) // 2]
    wrong[y, x] += 1
    assert not reference.check_labels(wrong, want)
    assert not reference.check_labels(None, want)


def test_reference_rejects_one_wrong_bin():
    image = _scene()
    ref = reference.histogram_reference(image, 256)
    assert reference.check_histogram(ref.copy(), ref)
    wrong = ref.copy()
    wrong[7] += 1
    assert not reference.check_histogram(wrong, ref)
    assert not reference.check_histogram(ref[:-1], ref)


def test_reference_follows_the_repo_convention():
    image = np.array([[1, 0, 2, 2],
                      [1, 0, 0, 2],
                      [0, 0, 3, 0],
                      [4, 0, 0, 3]])
    assert reference.label_reference(image, grey=True).tolist() == [
        [1, 0, 3, 3],
        [1, 0, 0, 3],
        [0, 0, 11, 0],
        [13, 0, 0, 11]]
    # Binary: every non-zero pixel joins its 8 neighbours.
    assert reference.label_reference(image, grey=False)[3, 3] == 3


@pytest.mark.parametrize("grey", [False, True])
def test_reference_agrees_with_the_program(grey):
    from repro.darray import darray_components

    image = _scene(128) if grey else (_scene(128) > 128).astype(np.int32)
    out = darray_components(image, p=4, transport="local", grey=grey).labels
    assert reference.check_labels(out, reference.digest(
        reference.label_reference(image, grey=grey)))


def test_variant_references_follow_the_base(tmp_path):
    base = _scene()
    cache = reference.ReferenceCache(str(tmp_path / "refs.json"))
    rng = np.random.default_rng(5)
    for d in range(8):
        lut = reference.level_permutation(rng)
        image = reference.variant(base, d, lut)
        assert cache.variant_labels(base, d) == reference.digest(
            reference.label_reference(image, grey=True))
        hist = np.zeros(256, dtype=np.int64)
        hist[lut] = reference.histogram_reference(base, 256)
        assert np.array_equal(hist, reference.histogram_reference(image, 256))


def test_reference_cache_persists(tmp_path):
    image = _scene()
    path = str(tmp_path / "refs.json")
    first = reference.ReferenceCache(path).labels(image, grey=True)
    assert reference.ReferenceCache(path).labels(image, grey=True) == first
    assert json.loads(open(path).read())


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("job", 0.0, 10.0, None),
        Span("label", 1.0, 4.0, 0),
        Span("border", 3.0, 5.0, 0),   # overlaps label by 1 s
        Span("solve", 4.5, 4.7, 2),    # nested inside border
        Span("close", 9.0, 12.0, 0),   # runs past its parent's end
        Span("job", 20.0, 21.0, None),
    ]
    got = self_times(spans)
    assert got == pytest.approx([10 - (5 - 1) - (10 - 9), 3.0, 2.0 - 0.2, 0.2, 3.0, 1.0])
    jobs = job_breakdown(spans)
    assert [j["wall"] for j in jobs] == [10.0, 1.0]
    assert jobs[0]["unattributed"] == pytest.approx(5.0)
    assert jobs[0]["verbs"] == pytest.approx(
        {"label": 3.0, "border": 1.8, "solve": 0.2, "close": 3.0})
    assert jobs[1]["verbs"] == {}


def test_metric_names_and_benchmark_json():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench == catalog.benchmark_json()
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    for w in bench["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w
    assert max(m["bound"] for m in bench["end_to_end"]) <= 0.25
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for name, row in catalog.PER_LAYER.items():
        assert set(row["moves"]) | set(row["not_moves"]) <= end_to_end, name
        assert not set(row["moves"]) & set(row["not_moves"]), name
        assert set(row["on"]) | set(row["not_on"]) <= set(catalog.WORKLOADS), name
        assert row["on"] and not set(row["on"]) & set(row["not_on"]), name


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 201))
    value, pct, n = measure.tail(values)
    assert (pct, n) == (95.0, 200)
    assert value == pytest.approx(np.percentile(values, 95))
    assert measure.tail(range(5))[1] == 0.0


def test_prometheus_histogram_median():
    text = "\n".join([
        'repro_exec_seconds_bucket{op="components",le="0.1"} 2',
        'repro_exec_seconds_bucket{op="components",le="0.2"} 9',
        'repro_exec_seconds_bucket{op="components",le="+Inf"} 10',
        'repro_exec_seconds_bucket{op="histogram",le="0.001"} 4',
        'repro_exec_seconds_bucket{op="histogram",le="+Inf"} 4',
        'repro_batch_size_sum 12',
        'repro_batch_size_count 8',
    ])
    assert serve._histogram_p50(text, "repro_exec_seconds", 'op="components"') == 0.2
    assert serve._histogram_p50(text, "repro_exec_seconds", 'op="histogram"') == 0.001
    assert serve._histogram_mean(text, "repro_batch_size") == 1.5


def test_tracker_tracebacks_are_counted():
    text = ("Traceback (most recent call last):\n"
            '  File "/usr/lib/python3.11/multiprocessing/resource_tracker.py", line 1\n'
            "KeyError: '/psm_1'\n"
            "Traceback (most recent call last):\n"
            '  File "x.py", line 2\nValueError\n')
    assert measure.count_tracker_tracebacks(text) == 1


def _in_subprocess(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracker_tracebacks_reach_the_counted_file(tmp_path):
    """The tracker the runner shares writes its tracebacks to the file that
    is counted, not to the benchmark's own stderr."""
    path = tmp_path / "tracker.stderr"
    out = _in_subprocess(
        "from multiprocessing import resource_tracker\n"
        "from e2ebench import measure\n"
        f"measure.start_resource_tracker({str(path)!r})\n"
        "resource_tracker.unregister('/psm_never_registered', 'shared_memory')\n"
        "measure.stop_resource_tracker()\n"
        f"print(measure.count_tracker_tracebacks(open({str(path)!r}).read()))\n")
    assert out.strip() == "1"


def test_orphaned_descendants_are_stopped():
    """A grandchild whose parent exited is inherited and stopped, and
    nothing is left running afterwards."""
    out = _in_subprocess(
        "import subprocess\n"
        "from e2ebench import measure\n"
        "assert measure.become_subreaper()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 & exit 0'], check=True)\n"
        "print(measure.stop_descendants(grace=0.5))\n"
        "print(measure._own_children())\n")
    killed, left = out.strip().splitlines()
    assert "sleep 60" in killed
    assert left == "[]"


def test_steal_share():
    before = [0] * 10
    after = [50, 0, 30, 10, 0, 0, 0, 10, 0, 0]
    assert measure.steal_share(before, after) == pytest.approx(0.1)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "batch-2048", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
