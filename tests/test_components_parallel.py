"""Tests for the parallel connected components algorithm (Sections 5-6)."""

import numpy as np
import pytest

from repro.baselines import sequential_components
from repro.core.connected_components import parallel_components
from repro.images import (
    binary_test_image,
    checkerboard,
    darpa_like,
)
from repro.machines import CM5, IDEAL
from repro.utils.errors import ValidationError
from repro.utils.validation import ilog2
from tests.conftest import oracle_binary_labels, oracle_grey_labels


class TestBinaryCorrectness:
    @pytest.mark.parametrize("idx", range(1, 10))
    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_catalogue_images(self, idx, p):
        img = binary_test_image(idx, 64)
        res = parallel_components(img, p, IDEAL)
        assert np.array_equal(res.labels, sequential_components(img))

    @pytest.mark.parametrize("p", [2, 8, 32])
    def test_non_square_grids(self, p):
        """Odd d: the grid is twice as wide as tall."""
        img = binary_test_image(9, 64)
        res = parallel_components(img, p, IDEAL)
        assert np.array_equal(res.labels, sequential_components(img))

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_random_vs_oracle(self, connectivity, small_binary):
        res = parallel_components(small_binary, 16, IDEAL, connectivity=connectivity)
        assert np.array_equal(res.labels, oracle_binary_labels(small_binary, connectivity))

    def test_empty_image(self):
        img = np.zeros((32, 32), dtype=np.int32)
        res = parallel_components(img, 16, IDEAL)
        assert res.n_components == 0
        assert not res.labels.any()

    def test_full_image_single_component(self):
        img = np.ones((32, 32), dtype=np.int32)
        res = parallel_components(img, 16, IDEAL)
        assert res.n_components == 1
        assert (res.labels[img != 0] == 1).all()

    def test_component_spanning_all_tiles(self):
        """The cross touches every tile row/column."""
        img = binary_test_image(5, 64)
        res = parallel_components(img, 16, IDEAL)
        assert res.n_components == 1

    def test_single_pixel_components_at_tile_corners(self):
        """Pixels isolated exactly at tile corners stress diagonal merges."""
        n, p = 32, 16
        img = np.zeros((n, n), dtype=np.int32)
        # tile size is 8x8; place pixels straddling tile corners diagonally
        img[7, 7] = img[8, 8] = 1      # one diagonal component across 4 tiles
        img[7, 24] = img[8, 23] = 1    # anti-diagonal across a corner
        img[15, 15] = 1                # isolated
        res = parallel_components(img, p, IDEAL)
        assert np.array_equal(res.labels, sequential_components(img))
        assert res.n_components == 3

    def test_diagonal_corner_not_connected_under_4(self):
        n, p = 32, 16
        img = np.zeros((n, n), dtype=np.int32)
        img[7, 7] = img[8, 8] = 1
        res = parallel_components(img, p, IDEAL, connectivity=4)
        assert res.n_components == 2


class TestGreyCorrectness:
    @pytest.mark.parametrize("p", [1, 4, 32])
    def test_darpa_like_vs_oracle(self, p):
        img = darpa_like(64, 16, seed=11)
        res = parallel_components(img, p, IDEAL, grey=True)
        assert np.array_equal(res.labels, oracle_grey_labels(img, 8))

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_random_grey(self, connectivity, small_grey):
        res = parallel_components(small_grey, 16, IDEAL, grey=True, connectivity=connectivity)
        assert np.array_equal(res.labels, oracle_grey_labels(small_grey, connectivity))

    def test_checkerboard_two_components(self):
        img = checkerboard(32, 1, levels=(1, 2))
        res = parallel_components(img, 16, IDEAL, grey=True)
        assert res.n_components == 2

    def test_equal_binary_when_single_level(self):
        img = binary_test_image(6, 32)
        a = parallel_components(img, 4, IDEAL, grey=True).labels
        b = parallel_components(img, 4, IDEAL, grey=False).labels
        assert np.array_equal(a, b)


class TestOptionMatrix:
    @pytest.mark.parametrize("shadow", [True, False])
    @pytest.mark.parametrize("dist", ["direct", "transpose"])
    @pytest.mark.parametrize("limited", [True, False])
    def test_all_variants_identical_output(self, shadow, dist, limited, small_binary):
        base = sequential_components(small_binary)
        res = parallel_components(
            small_binary, 16, IDEAL,
            shadow_manager=shadow, distribution=dist, limited_updating=limited,
        )
        assert np.array_equal(res.labels, base)

    @pytest.mark.parametrize("engine", ["bfs", "runs", "sv"])
    def test_engines_interchangeable(self, engine):
        img = binary_test_image(7, 32)
        res = parallel_components(img, 4, IDEAL, engine=engine)
        assert np.array_equal(res.labels, sequential_components(img))

    def test_unknown_engine(self, small_binary):
        with pytest.raises(ValidationError):
            parallel_components(small_binary, 4, engine="nope")

    def test_unknown_distribution(self, small_binary):
        with pytest.raises(ValidationError):
            parallel_components(small_binary, 4, distribution="fanout")


class TestStatsAndCosts:
    def test_step_stats_structure(self, small_binary):
        res = parallel_components(small_binary, 16, CM5)
        assert len(res.step_stats) == ilog2(16)
        for st_, expect in zip(res.step_stats, ("H", "V", "H", "V")):
            assert st_.orientation == expect
        assert all(st_.n_vertices >= 0 for st_ in res.step_stats)

    def test_phase_sequence(self, small_binary):
        res = parallel_components(small_binary, 4, CM5)
        names = [ph.name for ph in res.report.phases]
        assert names[0] == "cc:label"
        assert names[1] == "cc:hooks"
        assert names[-1] == "cc:final"
        assert "cc:m1:fetch" in names and "cc:m2:update" in names

    def test_limited_updating_is_cheaper(self):
        """The headline design choice: limited border updating beats
        full per-iteration relabeling."""
        img = darpa_like(128, 16, seed=4)
        lim = parallel_components(img, 16, CM5, grey=True, limited_updating=True)
        full = parallel_components(img, 16, CM5, grey=True, limited_updating=False)
        assert lim.elapsed_s < full.elapsed_s

    def test_comp_scales_with_tile_size(self):
        p = 16
        t64 = parallel_components(binary_test_image(6, 64), p, CM5)
        t128 = parallel_components(binary_test_image(6, 128), p, CM5)
        ratio = t128.report.comp_s / t64.report.comp_s
        assert 2.5 < ratio < 5.0  # ~4x for O(n^2/p) compute

    def test_p1_has_no_merge_phases(self, small_binary):
        res = parallel_components(small_binary, 1, CM5)
        names = [ph.name for ph in res.report.phases]
        assert names == ["cc:label", "cc:hooks", "cc:final"]

    def test_n_components_matches_labels(self, small_binary):
        res = parallel_components(small_binary, 4, IDEAL)
        assert res.n_components == len(np.unique(res.labels[res.labels != 0]))

    def test_hazard_checking_on_by_default(self, small_binary):
        # Smoke: the full algorithm runs clean under the hazard checker.
        res = parallel_components(small_binary, 16, IDEAL, check_hazards=True)
        assert res.labels.shape == small_binary.shape


class TestSimulatorMemory:
    def test_arrays_freed_without_cyclic_gc(self):
        """The simulated arrays die with the last reference to the machine.

        Processors and the machine's array registry hold the machine and
        its arrays weakly, so reference counting alone frees everything
        a run allocated (at 512x512 the arrays are over 10 MiB).
        """
        import gc
        import tracemalloc

        img = binary_test_image(4, 512)
        parallel_components(img, 4)  # warm imports and kernel caches
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            res = parallel_components(img, 4)
            del res
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert held < 1 << 20, f"{held / 2**20:.1f} MiB held after the call"
