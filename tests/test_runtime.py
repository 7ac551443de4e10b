"""Tests for the real-parallel engine: shared memory + the darray
``shmem`` transport's supervised process pool."""

import numpy as np
import pytest

from repro.baselines import sequential_components, sequential_histogram
from repro.images import binary_test_image, darpa_like, random_greyscale
from repro.darray import darray_components, darray_histogram
from repro.runtime import SharedNDArray
from repro.runtime.shmem import ShmMeta
from repro.utils.errors import ValidationError

#: The multiprocess engine: darray over shared-memory shards, two
#: worker processes whatever the tile count.
SHMEM = dict(transport="shmem", workers=2)


class TestSharedNDArray:
    def test_create_and_write(self):
        with SharedNDArray.create((4, 4), np.int64) as shm:
            shm.array[:] = 7
            assert (shm.array == 7).all()

    def test_from_array_copies(self):
        src = np.arange(12).reshape(3, 4)
        with SharedNDArray.from_array(src) as shm:
            assert np.array_equal(shm.array, src)
            src[0, 0] = 99
            assert shm.array[0, 0] == 0

    def test_attach_sees_owner_writes(self):
        owner = SharedNDArray.create((8,), np.float64)
        try:
            owner.array[:] = np.arange(8)
            other = SharedNDArray.attach(owner.meta)
            assert np.array_equal(other.array, np.arange(8))
            other.close()
        finally:
            owner.close()
            owner.unlink()

    def test_meta_roundtrip(self):
        owner = SharedNDArray.create((2, 3), np.int32)
        try:
            meta = owner.meta
            assert isinstance(meta, ShmMeta)
            assert meta.shape == (2, 3)
        finally:
            owner.close()
            owner.unlink()

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SharedNDArray.create((0,), np.int64)

    def test_attach_sends_nothing_to_the_tracker(self, monkeypatch):
        """Only the owner talks to the resource tracker (register on
        create, unregister on unlink); an attacher's messages could land
        after the owner's unlink and crash the tracker's bookkeeping."""
        from multiprocessing import resource_tracker

        calls = []
        for verb in ("register", "unregister"):
            monkeypatch.setattr(
                resource_tracker, verb,
                lambda name, rtype, verb=verb: calls.append(verb),
            )
        with SharedNDArray.create((8,), np.int64) as owner:
            assert calls == ["register"]
            other = SharedNDArray.attach(owner.meta)
            other.array[:] = 3
            other.close()
            assert calls == ["register"]
            assert (owner.array == 3).all()
        assert calls == ["register", "unregister"]

    def test_attach_loop_leaves_tracker_quiet(self):
        """Concurrent shmem calls from forked processes: no tracker
        tracebacks (a late attacher unregister used to raise KeyError
        inside the tracker after the owner's unlink)."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import multiprocessing as mp
            from repro.darray import darray_components, darray_histogram
            from repro.images import darpa_like

            def loop(_):
                img = darpa_like(128, 256)
                for _ in range(12):
                    darray_histogram(img, 256, p=4, transport="shmem", workers=2)
                    darray_components(img, p=4, transport="shmem", workers=2,
                                      grey=True)

            if __name__ == "__main__":
                procs = [mp.get_context("fork").Process(target=loop, args=(i,))
                         for i in range(3)]
                for p in procs:
                    p.start()
                for p in procs:
                    p.join()
                assert all(p.exitcode == 0 for p in procs)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr


class TestHistogramBackends:
    def test_serial_matches_sequential(self, small_grey):
        out = darray_histogram(small_grey, 8, transport="local")
        assert np.array_equal(out, sequential_histogram(small_grey, 8))

    def test_process_matches_sequential(self, small_grey):
        out = darray_histogram(small_grey, 8, p=4, **SHMEM)
        assert np.array_equal(out, sequential_histogram(small_grey, 8))

    def test_rectangular_image(self):
        img = random_greyscale(32, 16, seed=0)[:16, :]
        out = darray_histogram(img, 16, p=2, **SHMEM)
        assert np.array_equal(out, sequential_histogram(img, 16))

    def test_level_validation(self):
        img = np.full((4, 4), 8, dtype=np.int32)
        with pytest.raises(ValidationError):
            darray_histogram(img, 8, p=1, **SHMEM)

    def test_bad_backend(self, small_grey):
        with pytest.raises(ValidationError):
            darray_histogram(small_grey, 8, transport="gpu")


def _components(image, **kw):
    return darray_components(image, **kw).labels


class TestComponentsBackends:
    def test_serial_matches_sequential(self, small_binary):
        out = _components(small_binary, transport="local")
        assert np.array_equal(out, sequential_components(small_binary))

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_process_binary(self, workers, small_binary):
        out = _components(small_binary, p=workers, **SHMEM)
        assert np.array_equal(out, sequential_components(small_binary))

    def test_process_grey(self):
        img = darpa_like(64, 16, seed=12)
        out = _components(img, grey=True, p=4, **SHMEM)
        assert np.array_equal(out, sequential_components(img, grey=True))

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_connectivity(self, connectivity):
        img = binary_test_image(9, 64)
        out = _components(img, connectivity=connectivity, p=4, **SHMEM)
        assert np.array_equal(
            out, sequential_components(img, connectivity=connectivity)
        )

    def test_single_worker_falls_back_to_serial(self, small_binary):
        out = _components(small_binary, p=1, **SHMEM)
        assert np.array_equal(out, sequential_components(small_binary))

    def test_indivisible_size_uses_balanced_grid(self):
        """n=36 with p=8: the 2x4 grid does not divide 36; the balanced
        (non-strict) partition still covers it bit-identically."""
        rng = np.random.default_rng(0)
        img = (rng.random((36, 36)) < 0.5).astype(np.int32)
        out = _components(img, p=8, **SHMEM)
        assert np.array_equal(out, sequential_components(img))
