"""Tests for wall-clock observability of the multiprocess darray engine."""

import json

import numpy as np
import pytest

from repro.core.merge import merge_schedule
from repro.core.tiles import ProcessorGrid
from repro.darray import darray_components, darray_histogram
from repro.images import darpa_like
from repro.obs import (
    WallRecorder,
    chrome_trace,
    validate_chrome_trace,
    wall_metrics,
)

N = 64
K = 256


def histogram(image, k, *, workers=None, **kw):
    """Tile-parallel tally: one tile per worker, as a band per worker was."""
    if workers is None:
        return darray_histogram(image, k, transport="local", **kw)
    return darray_histogram(
        image, k, p=workers, transport="shmem", workers=workers, **kw
    )


def components(image, *, workers, **kw):
    return darray_components(
        image, p=workers, transport="shmem", workers=workers, **kw
    ).labels


@pytest.fixture(scope="module")
def image():
    return darpa_like(N, K)


class TestHistogramTrace:
    def test_spans_per_worker(self, image):
        rec = WallRecorder()
        histogram(image, K, workers=2, recorder=rec)
        assert len(rec.worker_lanes) == 2  # every pool process traced
        tiles = [s for s in rec.log.spans if s.name.startswith("darray:hist:t")]
        assert len(tiles) == 2

    def test_driver_spans_present(self, image):
        rec = WallRecorder()
        histogram(image, K, workers=2, recorder=rec)
        names = {s.name for s in rec.log.spans if s.lane == "driver"}
        assert "darray:hist" in names

    def test_result_unchanged_by_recording(self, image):
        rec = WallRecorder()
        traced = histogram(image, K, workers=2, recorder=rec)
        plain = histogram(image, K, workers=2)
        assert np.array_equal(traced, plain)

    def test_serial_backend_records_nothing_from_workers(self, image):
        rec = WallRecorder()
        histogram(image, K, recorder=rec)
        assert rec.worker_lanes == []


class TestComponentsTrace:
    @pytest.fixture(scope="class")
    def traced(self, image):
        rec = WallRecorder()
        labels = components(image, grey=True, workers=4, recorder=rec)
        return rec, labels

    def test_span_per_worker(self, traced):
        rec, _ = traced
        assert len(rec.worker_lanes) == 4

    def test_span_per_merge_round(self, traced, image):
        rec, _ = traced
        rounds = len(merge_schedule(ProcessorGrid(4, image.shape)))
        driver_rounds = [
            s for s in rec.log.spans if s.name.startswith("darray:merge:r")
        ]
        assert len(driver_rounds) == rounds

    def test_merge_group_tasks_recorded(self, traced):
        rec, _ = traced
        groups = [s for s in rec.log.spans if s.name.startswith("darray:border:s")]
        assert groups  # at least one border task span came through the queue

    def test_chrome_trace_validates(self, traced):
        rec, _ = traced
        obj = chrome_trace(rec.log)
        validate_chrome_trace(json.loads(json.dumps(obj)))

    def test_result_unchanged_by_recording(self, traced, image):
        _, labels = traced
        plain = components(image, grey=True, workers=4)
        assert np.array_equal(labels, plain)

    def test_wall_metrics_shape(self, traced):
        rec, _ = traced
        snap = wall_metrics(rec.log, workers=len(rec.worker_lanes))
        assert snap["engine"] == "runtime"
        assert snap["clock"] == "wall"
        assert snap["p"] == 4
        assert snap["totals"]["elapsed_s"] > 0
        names = {ph["name"] for ph in snap["phases"]}
        assert "darray:label" in names and "worker:init" in names
        json.dumps(snap)  # must be serializable


class TestWallRecorder:
    def test_driver_span_timing(self):
        rec = WallRecorder()
        with rec.span("work"):
            pass
        (span,) = rec.log.spans
        assert span.lane == "driver"
        assert span.dur_s >= 0
        assert span.start_s >= 0

    def test_drain_without_queue_is_noop(self):
        rec = WallRecorder()
        assert rec.drain() == 0
