import struct

import numpy as np
import pytest

from lrdec.convmodel import Dictionary
from lrdec.io import (FormatError, generate_mask, read_dictionary, read_image,
                      read_mask, read_tensor, write_dictionary, write_image,
                      write_mask, write_tensor)
from lrdec.metrics import compression_ratio, mse, psnr
from lrdec.tensor import KruskalTensor

RNG = np.random.default_rng


class TestPsnr:
    def test_identical_inputs_infinite(self):
        a = RNG(0).standard_normal((4, 4))
        assert psnr(a, a) == float("inf")

    def test_constant_offset_analytic(self):
        a = np.zeros((10, 10))
        assert abs(psnr(a, a + 0.1, peak=1.0) - 20.0) < 1e-12

    def test_constant_error_depends_only_on_magnitude(self):
        a = RNG(1).standard_normal((6, 6))
        assert abs(psnr(a, a + 0.25) - psnr(a, a - 0.25)) < 1e-12

    def test_matches_two_pass_oracle(self):
        rng = RNG(2)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((5, 7))
        total = 0.0
        for i in range(5):
            for j in range(7):
                total += (a[i, j] - b[i, j]) ** 2
        expected = 10.0 * np.log10(1.0 / (total / 35.0))
        assert abs(psnr(a, b) - expected) < 1e-12
        assert abs(mse(a, b) - total / 35.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("metric", [mse, psnr])
    def test_complex_input_rejected(self, metric):
        real, cplx = np.zeros((2, 2)), np.full((2, 2), 1j)
        with pytest.raises(ValueError, match=r"^estimate must be real, got "
                                             r"dtype complex128$"):
            metric(real, cplx)
        with pytest.raises(ValueError, match="^reference must be real"):
            metric(cplx, real)

    def test_peak_validation(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(2), np.zeros(2), peak=0.0)

    @pytest.mark.parametrize("peak", [np.inf, np.nan])
    def test_non_finite_peak_rejected(self, peak):
        with pytest.raises(ValueError, match="peak must be finite"):
            psnr(np.zeros(2), np.ones(2), peak=peak)


class TestCompressionRatio:
    def test_counted_entries_arithmetic(self):
        # 64 surviving entries representing an 8x8x8 signal -> CR = 8
        stats = compression_ratio([[np.ones((32, 1))], [np.ones((32, 1))]],
                                  (8, 8, 8), eps_rel=0.5)
        assert stats.nnz == 64
        assert stats.cr == 8.0

    def test_dense_count_with_zero_threshold(self):
        rng = RNG(3)
        acts = [KruskalTensor([rng.standard_normal((4, 2)),
                               rng.standard_normal((3, 2))])
                for _ in range(3)]
        stats = compression_ratio(acts, (4, 3), eps_rel=0.0)
        assert stats.nnz == 3 * (4 * 2 + 3 * 2)

    def test_all_zero_activations(self):
        acts = [KruskalTensor([np.zeros((4, 2)), np.zeros((3, 2))])]
        stats = compression_ratio(acts, (4, 3))
        assert stats.nnz == 0
        assert stats.cr == float("inf")

    @pytest.mark.parametrize("eps_rel", [np.nan, np.inf, 1.0, 2.0, -0.1])
    def test_threshold_outside_unit_interval_rejected(self, eps_rel):
        # at or above 1, or NaN, no entry survives and cr read inf
        acts = [KruskalTensor([np.ones((4, 2)), np.ones((3, 2))])]
        with pytest.raises(ValueError,
                           match=r"eps_rel must be finite and in \[0, 1\)"):
            compression_ratio(acts, (4, 3), eps_rel=eps_rel)

    def test_complex_factors_rejected(self):
        # the cast to float dropped the imaginary parts and counted the rest
        acts = [[np.ones((4, 2)), np.ones((3, 2))],
                [np.ones((4, 2)), np.ones((3, 2)) + 1j]]
        with pytest.raises(ValueError,
                           match=r"^activation 1 has complex factors$"):
            compression_ratio(acts, (4, 3))

    def test_invariant_to_filter_permutation(self):
        rng = RNG(4)
        acts = [KruskalTensor([rng.standard_normal((4, 2)),
                               rng.standard_normal((3, 2))])
                for _ in range(3)]
        a = compression_ratio(acts, (4, 3), eps_rel=1e-3)
        b = compression_ratio(acts[::-1], (4, 3), eps_rel=1e-3)
        assert (a.cr, a.nnz) == (b.cr, b.nnz)


class TestTensorContainer:
    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "t.lrt"
        t = RNG(5).standard_normal((3, 4, 2))
        write_tensor(path, t)
        first = path.read_bytes()
        back = read_tensor(path)
        assert np.array_equal(back, t)
        write_tensor(path, back)
        assert path.read_bytes() == first

    def test_complex_tensor_rejected(self, tmp_path):
        path = tmp_path / "t.lrt"
        with pytest.raises(ValueError, match=r"^tensor must be real, got "
                                             r"dtype complex128$"):
            write_tensor(path, np.ones((2, 3)) * (1 + 1j))
        assert not path.exists()

    def test_documented_byte_layout(self, tmp_path):
        path = tmp_path / "t.lrt"
        write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        expected = (b"LRTENS01" + struct.pack("<I", 2)
                    + struct.pack("<QQ", 2, 2)
                    + struct.pack("<4d", 1.0, 3.0, 2.0, 4.0))
        assert path.read_bytes() == expected
        assert len(expected) == 8 + 4 + 16 + 32

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lrt"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 16)
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.lrt"
        write_tensor(path, np.ones((4, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.lrt"
        write_tensor(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_empty_dims_rejected(self, tmp_path):
        path = tmp_path / "t.lrt"
        path.write_bytes(b"LRTENS01" + struct.pack("<I", 0))
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_dimension_overflow_rejected(self, tmp_path):
        path = tmp_path / "t.lrt"
        path.write_bytes(b"LRTENS01" + struct.pack("<I", 2)
                         + struct.pack("<QQ", 1 << 40, 1 << 40))
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "t.lrt"
        path.write_bytes(b"LRTENS01" + struct.pack("<I", 1)
                         + struct.pack("<Q", 0))
        with pytest.raises(FormatError):
            read_tensor(path)


class TestDictionaryContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.lrd"
        filters = RNG(6).standard_normal((3, 2, 4, 5))
        write_dictionary(path, Dictionary(filters, channels=True))
        back = read_dictionary(path)
        assert back.num_filters == 3
        assert back.num_channels == 2
        assert back.support == (4, 5)
        assert np.array_equal(back.filters, filters)

    def test_single_channel_round_trip(self, tmp_path):
        path = tmp_path / "d.lrd"
        filters = RNG(7).standard_normal((2, 3, 3))
        write_dictionary(path, Dictionary(filters))
        back = read_dictionary(path)
        assert back.num_channels == 1
        assert np.array_equal(back.filters[:, 0], filters)

    def test_filter_major_channel_minor_order(self, tmp_path):
        path = tmp_path / "d.lrd"
        filters = np.arange(8.0).reshape(2, 2, 2, 1)
        write_dictionary(path, Dictionary(filters, channels=True))
        data = path.read_bytes()
        header = 8 + 12 + 16
        payload = np.frombuffer(data[header:], dtype="<f8")
        expected = np.concatenate(
            [filters[m, c].ravel(order="F") for m in range(2)
             for c in range(2)])
        assert np.array_equal(payload, expected)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.lrd"
        path.write_bytes(b"LRTENS01" + b"\0" * 32)
        with pytest.raises(FormatError):
            read_dictionary(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "d.lrd"
        write_dictionary(path, Dictionary(np.ones((2, 2, 2))))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError):
            read_dictionary(path)


class TestImages:
    def test_single_pixel_maxval(self, tmp_path):
        path = tmp_path / "one.pgm"
        path.write_bytes(b"P5\n1 1\n255\n" + bytes([255]))
        img = read_image(path)
        assert img.shape == (1, 1)
        assert img[0, 0] == 1.0

    def test_checkerboard(self, tmp_path):
        path = tmp_path / "cb.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255]))
        img = read_image(path)
        assert np.array_equal(img, np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_comments_and_whitespace_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # binary gray\n# a comment line\n 2\t1 \n255\n"
                         + bytes([7, 250]))
        img = read_image(path)
        assert img.shape == (1, 2)
        assert abs(img[0, 0] - 7 / 255) < 1e-12

    def test_sixteen_bit_samples(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n1 2\n65535\n"
                         + struct.pack(">HH", 65535, 32768))
        img = read_image(path)
        assert img[0, 0] == 1.0
        assert abs(img[1, 0] - 32768 / 65535) < 1e-12

    def test_ppm_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "c.ppm"
        rng = RNG(8)
        img = np.round(rng.uniform(size=(5, 4, 3)) * 255) / 255
        write_image(path, img)
        first = path.read_bytes()
        back = read_image(path)
        assert back.shape == (5, 4, 3)
        write_image(path, back)
        assert path.read_bytes() == first

    def test_pgm_write_then_read(self, tmp_path):
        path = tmp_path / "g.pgm"
        img = np.linspace(0, 1, 12).reshape(3, 4)
        write_image(path, img, maxval=65535)
        back = read_image(path)
        assert np.max(np.abs(back - img)) <= 0.5 / 65535

    def test_unsupported_ascii_format(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n1 1\n255\n255\n")
        with pytest.raises(FormatError):
            read_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
        with pytest.raises(FormatError):
            read_image(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\nabc 2\n255\n" + bytes(4))
        with pytest.raises(FormatError):
            read_image(path)

    def test_complex_image_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        with pytest.raises(ValueError, match=r"^image must be real, got "
                                             r"dtype complex128$"):
            write_image(path, np.full((2, 2), 0.5 + 0.5j))
        assert not path.exists()

    def test_bad_write_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_image(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


class TestMasks:
    def test_zero_fraction_all_true(self):
        mask = generate_mask((5, 4), 0.0, seed=0)
        assert mask.all()

    def test_exact_missing_count(self):
        mask = generate_mask((10, 10), 0.5, seed=1)
        assert int((~mask).sum()) == 50

    def test_rounded_count(self):
        mask = generate_mask((7, 3), 0.33, seed=2)
        assert int((~mask).sum()) == round(0.33 * 21)

    def test_deterministic_and_seed_sensitive(self):
        a = generate_mask((8, 8), 0.4, seed=3)
        b = generate_mask((8, 8), 0.4, seed=3)
        c = generate_mask((8, 8), 0.4, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_fraction_one_rejected(self):
        with pytest.raises(ValueError):
            generate_mask((4, 4), 1.0, seed=0)

    def test_mask_file_round_trip(self, tmp_path):
        path = tmp_path / "m.lrt"
        mask = generate_mask((6, 5), 0.3, seed=5)
        write_mask(path, mask)
        assert np.array_equal(read_mask(path), mask)

    def test_mask_value_validation(self, tmp_path):
        path = tmp_path / "m.lrt"
        write_tensor(path, np.full((2, 2), 0.5))
        with pytest.raises(FormatError):
            read_mask(path)
