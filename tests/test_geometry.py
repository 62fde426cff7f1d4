"""Window/stride arithmetic, receptive-field folding, and a gradient-support
oracle that measures both directly on executing networks."""

import numpy as np
import pytest

from histopatch.geometry import (
    GeometryError,
    PatchGrid,
    RFState,
    output_size,
    patch_coords,
    patch_windows,
    receptive_field,
)
from histopatch.model import ConvBlock, canonical_imagewise_spec, canonical_patchwise_spec

from helpers import gradient_support, random_small_stack


def conv(kernel, stride=1, padding=0):
    """A 1-channel conv block: geometry reads only its kernel, stride and padding."""
    return ConvBlock(1, 1, kernel, stride, padding)


class TestPatchGrid:
    def test_full_scale_overlap_count(self):
        grid = PatchGrid(2048, 1536, window=512, stride=256)
        assert (grid.n_x, grid.n_y) == (7, 5)
        assert grid.total == 35

    def test_full_scale_tile_count(self):
        grid = PatchGrid(2048, 1536, window=512, stride=512)
        assert (grid.n_x, grid.n_y) == (4, 3)
        assert grid.total == 12

    def test_desk_scale_same_counts(self):
        # 256x192 with window 64 shares the full-resolution aspect ratio,
        # so the grid shapes carry over unchanged.
        for stride, counts in ((32, (7, 5)), (64, (4, 3))):
            grid = PatchGrid(256, 192, 64, stride)
            assert (grid.n_x, grid.n_y) == counts

    def test_count_matches_exhaustive_enumeration(self):
        for image in range(1, 41):
            for window in range(1, image + 1):
                for stride in range(1, 11):
                    n = len(range(0, image - window + 1, stride))
                    grid = PatchGrid(image, image, window, stride)
                    assert grid.n_x == n, (image, window, stride)

    def test_coords_row_major(self):
        grid = PatchGrid(6, 4, window=2, stride=2)
        assert patch_coords(grid) == [
            (0, 0), (2, 0), (4, 0),
            (0, 2), (2, 2), (4, 2),
        ]

    def test_coords_lie_inside_image(self):
        grid = PatchGrid(100, 70, window=24, stride=17)
        coords = patch_coords(grid)
        assert len(coords) == grid.total
        for x, y in coords:
            assert 0 <= x <= 100 - 24
            assert 0 <= y <= 70 - 24

    def test_coverage_flag(self):
        assert PatchGrid(2048, 1536, 512, 256).coverage_exact
        assert not PatchGrid(100, 100, 24, 17).coverage_exact

    def test_window_larger_than_image_rejected(self):
        with pytest.raises(GeometryError):
            PatchGrid(100, 50, window=64, stride=32)

    def test_nonpositive_stride_rejected(self):
        with pytest.raises(GeometryError):
            PatchGrid(100, 100, window=10, stride=0)


class TestPatchWindows:
    # (image_w, image_h, window, stride): exact cover, inexact cover on one
    # or both axes, stride larger than the window, a single patch
    GRIDS = [(12, 8, 4, 4), (12, 8, 4, 2), (100, 70, 24, 17), (13, 9, 4, 3),
             (20, 11, 3, 7), (9, 9, 9, 1)]

    @staticmethod
    def _image(w, h, c=3):
        return np.arange(c * h * w, dtype=np.float32).reshape(c, h, w)

    def test_values_match_slice(self):
        for w, h, k, s in self.GRIDS:
            grid = PatchGrid(w, h, window=k, stride=s)
            img = self._image(w, h)
            windows = patch_windows(img, grid)
            assert windows.shape == (grid.n_y, grid.n_x, 3, k, k)
            flat = windows.reshape(grid.total, 3, k, k)
            coords = patch_coords(grid)
            assert len(coords) == grid.total
            for p, (x, y) in enumerate(coords):
                np.testing.assert_array_equal(flat[p], img[:, y:y + k, x:x + k])

    def test_order_matches_coords(self):
        img = self._image(6, 4)
        windows = patch_windows(img, PatchGrid(6, 4, window=2, stride=2))
        np.testing.assert_array_equal(windows[0, 0], img[:, 0:2, 0:2])
        np.testing.assert_array_equal(windows[0, 1], img[:, 0:2, 2:4])
        np.testing.assert_array_equal(windows[1, 0], img[:, 2:4, 0:2])

    def test_read_only_view(self):
        img = self._image(12, 8)
        windows = patch_windows(img, PatchGrid(12, 8, window=4, stride=2))
        assert np.shares_memory(windows, img)
        assert not windows.flags.writeable

    def test_tile_grid_counts(self):
        windows = patch_windows(self._image(128, 96), PatchGrid(128, 96, 64, 64))
        assert windows.shape[:2] == (1, 2)

    def test_overlap_vs_tile_counts_at_full_shape_ratio(self):
        img = self._image(256, 192)
        assert patch_windows(img, PatchGrid(256, 192, 64, 32)).shape[:2] == (5, 7)
        assert patch_windows(img, PatchGrid(256, 192, 64, 64)).shape[:2] == (3, 4)

    def test_grid_of_another_shape_rejected(self):
        with pytest.raises(GeometryError, match="8x8"):
            patch_windows(self._image(8, 8), PatchGrid(9, 8, window=4, stride=4))

    def test_needs_chw(self):
        with pytest.raises(GeometryError):
            patch_windows(np.zeros((8, 8), dtype=np.float32), PatchGrid(8, 8, 4, 4))


class TestOutputSize:
    def test_single_layer_formula(self):
        assert output_size([conv(3)], 64) == [62]
        assert output_size([conv(3, 1, 1)], 64) == [64]
        assert output_size([conv(2, 2)], 64) == [32]

    def test_chained(self):
        layers = [conv(3, 1, 1), conv(2, 2), conv(3)]
        assert output_size(layers, 16) == [16, 8, 6]

    def test_collapse_rejected_with_layer_index(self):
        layers = [conv(3), conv(5)]
        with pytest.raises(GeometryError) as exc:
            output_size(layers, 5)
        assert "layer 1" in str(exc.value)


class TestReceptiveField:
    def test_identity(self):
        assert receptive_field([]) == RFState(r=1, jump=1)

    def test_single_3x3(self):
        assert receptive_field([conv(3)]) == RFState(r=3, jump=1)

    def test_two_3x3(self):
        assert receptive_field([conv(3), conv(3)]) == RFState(r=5, jump=1)

    def test_stride_multiplies_jump(self):
        rf = receptive_field([conv(3), conv(2, 2)])
        assert rf == RFState(r=4, jump=2)

    def test_padding_does_not_change_rf(self):
        a = receptive_field([conv(3), conv(3)])
        b = receptive_field([conv(3, 1, 1), conv(3, 1, 1)])
        assert a == b

    def test_patchwise_stack_pin(self):
        blocks = canonical_patchwise_spec().blocks
        assert receptive_field(blocks) == RFState(r=132, jump=8)
        assert output_size(blocks, 512)[-1] == 64

    def test_combined_stack_pin(self):
        pw = canonical_patchwise_spec().blocks
        iw = canonical_imagewise_spec().blocks
        assert receptive_field(pw + iw) == RFState(r=252, jump=32)


class TestGradientSupportOracle:
    """The folded (r, jump) numbers must equal what an actual network does:
    the set of input pixels with nonzero gradient for one output unit spans
    exactly r columns, and moving to the next unit shifts it by jump."""

    @pytest.mark.parametrize("case", range(20))
    def test_random_stacks(self, case):
        rng = np.random.default_rng(5000 + case)
        geoms = random_small_stack(rng)
        rf = receptive_field(geoms)
        input_size = rf.r + 2 * rf.jump  # guarantees >= 2 output columns
        widths = output_size(geoms, input_size)
        assert widths[-1] >= 2
        first0, last0 = gradient_support(geoms, out_x=0, input_size=input_size)
        first1, last1 = gradient_support(geoms, out_x=1, input_size=input_size)
        assert last0 - first0 + 1 == rf.r
        assert last1 - first1 + 1 == rf.r
        assert first1 - first0 == rf.jump

    def test_known_stack_support(self):
        geoms = [conv(3), conv(2, 2)]
        rf = receptive_field(geoms)  # r=4, jump=2
        first0, last0 = gradient_support(geoms, 0, input_size=10)
        first1, last1 = gradient_support(geoms, 1, input_size=10)
        assert (first0, last0) == (0, 3)
        assert (first1, last1) == (2, 5)
        assert last0 - first0 + 1 == rf.r
        assert first1 - first0 == rf.jump
