import numpy as np
import pytest

from lrdec.tensor import kruskal_reconstruct
from lrdec.transform import (ImaginaryResidueError, dft_factor, dft_nd,
                             idft_factor, idft_nd)

RNG = np.random.default_rng


class TestDftNd:
    def test_delta_to_constant(self):
        t = np.zeros((3, 4, 2))
        t[0, 0, 0] = 1.0
        s = dft_nd(t)
        assert np.max(np.abs(s - 1.0 / np.sqrt(t.size))) < 1e-13

    def test_zeros(self):
        assert np.array_equal(dft_nd(np.zeros((2, 5))), np.zeros((2, 5)))

    def test_parseval(self):
        t = RNG(0).standard_normal((4, 4, 4))
        assert abs(np.linalg.norm(t) - np.linalg.norm(dft_nd(t))) < 1e-12

    def test_inner_product_preserved(self):
        rng = RNG(1)
        a = rng.standard_normal((3, 5, 2))
        b = rng.standard_normal((3, 5, 2))
        lhs = np.vdot(a, b)
        rhs = np.vdot(dft_nd(a), dft_nd(b))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_circular_shift_phase_ramp(self):
        rng = RNG(2)
        t = rng.standard_normal((6, 4))
        shift = int(rng.integers(1, 6))
        shifted = np.roll(t, shift, axis=0)
        ramp = np.exp(-2j * np.pi * shift * np.arange(6) / 6)
        lhs = dft_nd(shifted)
        rhs = dft_nd(t) * ramp[:, None]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestIdftNd:
    def test_round_trip(self):
        t = RNG(3).standard_normal((3, 4, 5))
        back = idft_nd(dft_nd(t))
        assert np.max(np.abs(back - t)) < 1e-12

    def test_constant_to_delta(self):
        shape = (3, 2, 2)
        s = np.full(shape, 1.0 / np.sqrt(np.prod(shape)), dtype=complex)
        t = idft_nd(s)
        expected = np.zeros(shape)
        expected[0, 0, 0] = 1.0
        assert np.max(np.abs(t - expected)) < 1e-12

    def test_symmetric_input_real_output(self):
        s = dft_nd(RNG(4).standard_normal((4, 6)))
        z = np.fft.ifftn(s, norm="ortho")
        assert np.max(np.abs(z.imag)) < 1e-12
        assert np.array_equal(idft_nd(s), z.real)

    def test_asymmetric_input_raises(self):
        rng = RNG(5)
        s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ImaginaryResidueError):
            idft_nd(s)

    def test_zeros_pass(self):
        assert np.array_equal(idft_nd(np.zeros((3, 3), dtype=complex)),
                              np.zeros((3, 3)))


class TestFactorTransforms:
    def test_length_one_identity(self):
        x = RNG(6).standard_normal((1, 4))
        assert np.max(np.abs(dft_factor(x) - x)) < 1e-15

    def test_round_trip(self):
        x = RNG(7).standard_normal((5, 3))
        assert np.max(np.abs(idft_factor(dft_factor(x)) - x)) < 1e-12

    def test_batched_axis(self):
        x = RNG(8).standard_normal((2, 5, 3))
        batched = dft_factor(x, axis=1)
        for m in range(2):
            assert np.max(np.abs(batched[m] - dft_factor(x[m]))) < 1e-14

    @pytest.mark.parametrize("shape", [(3, 4), (3, 4, 2), (2, 2, 3, 2)])
    def test_separability(self, shape):
        rng = RNG(9)
        factors = [rng.standard_normal((s, 2)) for s in shape]
        spatial = dft_nd(kruskal_reconstruct(factors))
        spectral = kruskal_reconstruct([dft_factor(f) for f in factors])
        scale = max(1.0, np.max(np.abs(spatial)))
        assert np.max(np.abs(spatial - spectral)) < 1e-10 * scale

    def test_residue_error(self):
        bad = np.array([[1.0 + 0j, 2.0], [3.0, 4.0 + 2j]])
        with pytest.raises(ImaginaryResidueError):
            idft_factor(bad)
