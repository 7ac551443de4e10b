"""Tests for repro.darray: transports, engine, bit-identity, chaos.

The subsystem contract: every transport (in-process, shared-memory,
out-of-core) produces labels **bit-identical** to the serial reference
across kernel backends, leaks no ``/dev/shm`` segment, and -- for the
dispatched transport -- recovers from every seeded single fault or
fails typed, exactly like the hardened runtime.
"""

import warnings

import numpy as np
import pytest

from repro.baselines.sequential import sequential_components
from repro.core.tiles import ProcessorGrid
from repro.darray import (
    DistributedArray,
    TRANSPORTS,
    count_components,
    darray_components,
    darray_histogram,
    open_transport,
)
from repro.faults import (
    FaultPlan,
    FaultSpec,
    assert_no_shm_leak,
    single_fault_plans,
)
from repro.images import binary_test_image, random_greyscale
from repro.utils.errors import (
    DegradedRunWarning,
    FaultError,
    ValidationError,
)

N = 32
P = 4  # 2x2 grid -> 2 merge rounds
N_ROUNDS = 2
TRANSPORT_NAMES = ("local", "shmem", "mmap")
# Short deadlines keep the shmem chaos legs quick; faulted tasks on a
# 32x32 image take milliseconds, so the margin is still huge.
FAST = dict(timeout=1.5, max_retries=2, workers=P)


@pytest.fixture(scope="module")
def image():
    return binary_test_image(4, N)


@pytest.fixture(scope="module")
def serial_labels(image):
    return sequential_components(image, connectivity=8)


@pytest.fixture(scope="module")
def grey_image():
    return random_greyscale(N, 64, seed=5)


class TestBitIdentityMatrix:
    """(local, shmem, mmap) x (python, numpy) == the serial reference."""

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_binary_8conn(self, transport, kernel, image, serial_labels):
        with assert_no_shm_leak():
            res = darray_components(
                image, p=P, transport=transport, kernel=kernel, resident_tiles=1
            )
        assert np.array_equal(np.asarray(res.labels), serial_labels)
        assert res.n_components == count_components(serial_labels)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_binary_4conn(self, transport, image):
        expect = sequential_components(image, connectivity=4)
        res = darray_components(image, p=P, transport=transport, connectivity=4)
        assert np.array_equal(np.asarray(res.labels), expect)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_grey(self, transport, grey_image):
        expect = sequential_components(grey_image, grey=True)
        res = darray_components(grey_image, p=P, transport=transport, grey=True)
        assert np.array_equal(np.asarray(res.labels), expect)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_non_divisible_image(self, transport):
        # 30x30 with a 2x2 grid: balanced 15-pixel tiles; 29x31 is
        # uneven in both axes.
        for shape in ((30, 30), (29, 31)):
            img = binary_test_image(2, max(shape))[: shape[0], : shape[1]]
            expect = sequential_components(img, connectivity=8)
            res = darray_components(img, p=P, transport=transport)
            assert np.array_equal(np.asarray(res.labels), expect), (transport, shape)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_strip_grid(self, transport, image, serial_labels):
        res = darray_components(image, p=P, transport=transport, shape=(1, P))
        assert np.array_equal(np.asarray(res.labels), serial_labels)
        res = darray_components(image, p=P, transport=transport, shape=(P, 1))
        assert np.array_equal(np.asarray(res.labels), serial_labels)

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_histogram_parity(self, transport, grey_image):
        expect = np.bincount(grey_image.ravel(), minlength=64)
        with assert_no_shm_leak():
            got = darray_histogram(grey_image, 64, p=P, transport=transport)
        assert np.array_equal(got, expect)


class TestEngine:
    def test_streaming_count_matches_unique(self, image):
        res = darray_components(image, p=P)
        lab = np.asarray(res.labels)
        assert count_components(lab) == int(np.unique(lab[lab != 0]).size)

    def test_border_traffic_counted(self, image):
        res = darray_components(image, p=P)
        # 2 merge rounds x 2 groups x 2 sides of 16 pixels, labels +
        # colors at 8 bytes each: traffic must be counted and bounded.
        assert res.stats.border_bytes > 0
        assert res.stats.border_bytes <= 32 * N * 16  # << O(n^2)

    def test_local_transport_keeps_everything_resident(self, image):
        res = darray_components(image, p=P, transport="local")
        assert res.stats.spill_reads == 0
        assert res.stats.spill_writes == 0
        assert res.stats.resident_highwater == 0

    def test_obs_counts_emitted(self, image):
        from repro.obs import WallRecorder

        rec = WallRecorder()
        darray_components(image, p=P, recorder=rec)
        names = {s.name for s in rec.log.spans}
        assert "darray:label" in names
        assert "darray:merge:r1" in names
        assert "darray:final" in names

    def test_file_source(self, tmp_path, image, serial_labels):
        from repro.images.io import write_pgm

        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        for transport in TRANSPORT_NAMES:
            res = darray_components(str(path), p=P, transport=transport)
            assert np.array_equal(np.asarray(res.labels), serial_labels), transport


class TestTransportRegistry:
    def test_known_names(self):
        assert set(TRANSPORTS) == {"local", "shmem", "mmap"}

    def test_unknown_name_raises(self, image):
        grid = ProcessorGrid(P, N)
        with pytest.raises(ValidationError, match="unknown transport"):
            open_transport("carrier-pigeon", grid, image)

    def test_place_exposes_tiles(self, image):
        grid = ProcessorGrid(P, N)
        with DistributedArray.place(image, grid) as da:
            for pid in range(P):
                assert np.array_equal(da.tile(pid), image[grid.tile_slices(pid)])


def _matrix():
    # The communication verbs only: tests/test_faults_runtime.py runs the
    # whole matrix (tile-local sites too) for both workloads and kernels.
    plans = single_fault_plans(
        workload="components", engine="darray", n_rounds=N_ROUNDS, n_tasks=P
    )
    return [
        pytest.param(p, id=p.describe()) for p in plans
        if p.faults[0].site in ("darray:border", "darray:fetch")
    ]


class TestShmemChaosMatrix:
    """Every darray single-fault plan recovers bit-identically (shmem)."""

    @pytest.mark.parametrize("plan", _matrix())
    def test_single_fault_recovers(self, plan, image, serial_labels):
        with assert_no_shm_leak():
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegradedRunWarning)
                res = darray_components(
                    image, p=P, transport="shmem", fault_plan=plan, **FAST
                )
        assert np.array_equal(np.asarray(res.labels), serial_labels)

    def test_python_kernel_spot_check(self, image, serial_labels):
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:border", kind="corrupt", round=0, group=0),
        ))
        with assert_no_shm_leak():
            res = darray_components(
                image, p=P, transport="shmem", kernel="python",
                fault_plan=plan, **FAST,
            )
        assert np.array_equal(np.asarray(res.labels), serial_labels)

    def test_local_transport_ignores_plans(self, image, serial_labels):
        # No workers to fault: plans are inert, never installed in the
        # driver (a crash spec would kill the test process otherwise).
        plan = FaultPlan(faults=(
            FaultSpec(site="darray:border", kind="crash", times=-1),
        ))
        for transport in ("local", "mmap"):
            res = darray_components(image, p=P, transport=transport, fault_plan=plan)
            assert np.array_equal(np.asarray(res.labels), serial_labels)


def _persistent_border_fault():
    return FaultPlan(faults=(
        FaultSpec(site="darray:border", kind="exception", round=0, group=0, times=-1),
    ))


class TestDegradation:
    def test_exhausted_recovery_degrades_to_serial(self, image, serial_labels):
        from repro.obs import WallRecorder

        rec = WallRecorder()
        with assert_no_shm_leak():
            with pytest.warns(DegradedRunWarning, match="degraded to the serial"):
                res = darray_components(
                    image, p=P, transport="shmem", recorder=rec,
                    fault_plan=_persistent_border_fault(), **FAST,
                )
        assert np.array_equal(np.asarray(res.labels), serial_labels)
        names = [i.name for i in rec.fault_events()]
        assert names[-1] == "fault:degrade"

    def test_degrade_false_raises_typed_error_without_leak(self, image):
        with assert_no_shm_leak():
            with pytest.raises(FaultError):
                darray_components(
                    image, p=P, transport="shmem", degrade=False,
                    fault_plan=_persistent_border_fault(), **FAST,
                )
