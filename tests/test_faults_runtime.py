"""Chaos tests: the multiprocess darray engine under seeded fault plans.

Every task of the ``shmem`` transport (label, border, fetch, final,
hist) is a fault site; the matrix covers each kind at the first and
last tile task and at every merge round, for both workloads and both
kernel backends.

The contract under test (docs/FAULTS.md): for every seeded single-fault
plan the run either recovers to a **bit-identical** result or raises a
typed :class:`~repro.utils.errors.FaultError` within its deadline --
never a hang, never a wrong answer, never a leaked ``/dev/shm``
segment, and every recovery step visible as ``fault:*`` obs events.
"""

import warnings

import numpy as np
import pytest

from repro.faults import (
    FaultPlan,
    FaultSpec,
    assert_no_shm_leak,
    shm_segments,
    single_fault_plans,
)
from repro.darray import darray_components, darray_histogram
from repro.images import binary_test_image, random_greyscale
from repro.utils.errors import (
    DegradedRunWarning,
    FaultError,
    TaskTimeoutError,
)

WORKERS = 4
N = 32  # 2x2 grid of 16x16 tiles for p=4 -> 2 merge rounds
N_ROUNDS = 2
# Short deadlines keep crash/hang recovery quick; faulted tasks on this
# image take milliseconds, so the margin is still ~100x.
FAST = dict(p=WORKERS, transport="shmem", workers=WORKERS, timeout=1.5, max_retries=2)


def components(image, **kw):
    return darray_components(image, **kw).labels


@pytest.fixture(scope="module")
def image():
    return binary_test_image(4, N)


@pytest.fixture(scope="module")
def serial_labels(image):
    return components(image, transport="local")


@pytest.fixture(scope="module")
def grey_image():
    return random_greyscale(N, 64, seed=5)


def _matrix(workload):
    plans = single_fault_plans(
        workload=workload, engine="darray", n_rounds=N_ROUNDS, n_tasks=WORKERS
    )
    return [pytest.param(p, id=p.describe()) for p in plans]


class TestComponentsChaosMatrix:
    """Every single-fault plan x {python, numpy} recovers bit-identically."""

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @pytest.mark.parametrize("plan", _matrix("components"))
    def test_one_fault_recovers(self, plan, kernel, image, serial_labels):
        with assert_no_shm_leak():
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegradedRunWarning)
                got = components(
                    image, kernel=kernel, fault_plan=plan, **FAST
                )
        assert np.array_equal(got, serial_labels)

    @pytest.mark.parametrize("plan", _matrix("components"))
    def test_local_ignores_plans(self, plan, image, serial_labels):
        # The in-process transport has no workers to fault; plans are inert.
        got = components(image, transport="local", fault_plan=plan)
        assert np.array_equal(got, serial_labels)


class TestHistogramChaosMatrix:
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @pytest.mark.parametrize("plan", _matrix("histogram"))
    def test_one_fault_recovers(self, plan, kernel, grey_image):
        expect = darray_histogram(grey_image, 64, transport="local")
        with assert_no_shm_leak():
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegradedRunWarning)
                got = darray_histogram(
                    grey_image, 64, kernel=kernel, fault_plan=plan, **FAST
                )
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("plan", _matrix("histogram"))
    def test_local_ignores_plans(self, plan, grey_image):
        expect = darray_histogram(grey_image, 64, transport="local")
        got = darray_histogram(grey_image, 64, transport="local", fault_plan=plan)
        assert np.array_equal(got, expect)


def _persistent_border_fault():
    """A plan no retry budget can beat: every attempt of one border task."""
    return FaultPlan(faults=(
        FaultSpec(site="darray:border", kind="exception", round=0, group=0, times=-1),
    ))


class TestDegradation:
    def test_exhausted_recovery_degrades_to_serial(self, image, serial_labels):
        from repro.obs import WallRecorder

        rec = WallRecorder()
        with assert_no_shm_leak():
            with pytest.warns(DegradedRunWarning, match="degraded to the serial"):
                got = components(
                    image, recorder=rec, fault_plan=_persistent_border_fault(),
                    **FAST,
                )
        assert np.array_equal(got, serial_labels)  # still bit-identical
        names = [i.name for i in rec.fault_events()]
        assert "fault:retry" in names
        assert "fault:giveup" in names
        assert names[-1] == "fault:degrade"

    def test_degrade_false_raises_typed_error(self, image):
        with assert_no_shm_leak():
            with pytest.raises(FaultError) as err:
                components(
                    image, fault_plan=_persistent_border_fault(),
                    degrade=False, **FAST,
                )
        assert err.value.site == "darray:border"

    def test_persistent_hang_becomes_timeout_error(self, image):
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:label", kind="hang", task=0, times=-1),
        ))
        with assert_no_shm_leak():
            with pytest.raises(TaskTimeoutError):
                components(
                    image, p=WORKERS, transport="shmem", workers=WORKERS,
                    timeout=0.5, max_retries=1, degrade=False, fault_plan=plan,
                )


class TestFaultEventStreams:
    """Recovery paths are visible and correctly ordered in repro.obs."""

    def test_crash_chain(self, image, serial_labels):
        from repro.obs import WallRecorder

        plan = FaultPlan(faults=(
            FaultSpec(site="darray:label", kind="crash", task=0),
        ))
        rec = WallRecorder()
        got = components(image, recorder=rec, fault_plan=plan, **FAST)
        assert np.array_equal(got, serial_labels)
        names = [i.name for i in rec.fault_events()]
        # deadline expiry -> pool respawn -> retry, in that order
        assert names.index("fault:timeout") < names.index("fault:respawn")
        assert names.index("fault:respawn") < names.index("fault:retry")

    def test_corrupt_payload_detected_in_worker(self, image, serial_labels):
        from repro.obs import WallRecorder

        plan = FaultPlan(faults=(
            FaultSpec(site="darray:border", kind="corrupt", round=1, group=0),
        ))
        rec = WallRecorder()
        got = components(image, recorder=rec, fault_plan=plan, **FAST)
        assert np.array_equal(got, serial_labels)
        names = {i.name for i in rec.fault_events()}
        assert "fault:corrupt-detected" in names  # worker-side validation
        assert "fault:retry" in names

    def test_unfaulted_run_has_no_fault_events(self, image, serial_labels):
        from repro.obs import WallRecorder

        rec = WallRecorder()
        got = components(image, recorder=rec, **FAST)
        assert np.array_equal(got, serial_labels)
        assert rec.fault_events() == []


class TestLeakChecker:
    def test_shm_segments_lists_strings(self):
        assert all(isinstance(s, str) for s in shm_segments())

    def test_assert_no_shm_leak_passes_clean_block(self):
        with assert_no_shm_leak(grace_s=0.0):
            pass

    def test_assert_no_shm_leak_flags_leak(self):
        from repro.runtime import SharedNDArray

        leaked = None
        try:
            with pytest.raises(AssertionError, match="leaked"):
                with assert_no_shm_leak(grace_s=0.0):
                    leaked = SharedNDArray.create((4,), np.int64)
        finally:
            if leaked is not None:
                leaked.close()
                leaked.unlink()

    def test_checks_even_when_block_raises(self):
        from repro.runtime import SharedNDArray

        leaked = None
        try:
            with pytest.raises(AssertionError, match="leaked"):
                with assert_no_shm_leak(grace_s=0.0):
                    leaked = SharedNDArray.create((4,), np.int64)
                    raise RuntimeError("boom")
        finally:
            if leaked is not None:
                leaked.close()
                leaked.unlink()
