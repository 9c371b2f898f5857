import numpy as np
import pytest

from lrdec import transform
from lrdec.tensor import kruskal_reconstruct
from lrdec.transform import dft_factor, dft_nd, irdft_factor, rdft_factor

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
    # the inverse of dft_nd is numpy's unitary ifftn; the package keeps none
    def test_round_trip(self):
        t = RNG(3).standard_normal((3, 4, 5))
        back = np.fft.ifftn(dft_nd(t), norm="ortho")
        assert np.max(np.abs(back - t)) < 1e-12


class TestFactorTransforms:
    def test_length_one_identity(self):
        x = RNG(6).standard_normal((1, 4))
        assert np.max(np.abs(dft_factor(x) - x)) < 1e-15

    def test_round_trip(self):
        x = RNG(7).standard_normal((5, 3))
        back = np.fft.ifft(dft_factor(x), axis=0, norm="ortho")
        assert np.max(np.abs(back - x)) < 1e-12

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


LENGTHS = [1, 2, 3, 16, 31, 32, 33, 64]


def half_spectrum(length, shape, seed):
    """A random complex half spectrum of `length` with trailing `shape`,
    every imaginary part nonzero."""
    rng = RNG(seed)
    size = (length // 2 + 1,) + shape
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class TestHalfSpectrumPair:
    # up to the cut the pair is a product with cached DFT matrices, above
    # it numpy's rfft and irfft, bit for bit
    @staticmethod
    def close(got, want, length):
        if length <= transform._MATRIX_MAX_LENGTH:
            return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        return np.array_equal(got, want)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_forward_matches_rfft(self, length, shape):
        x = RNG(length).standard_normal((length,) + shape)
        want = np.fft.rfft(x, axis=0, norm="ortho")
        got = rdft_factor(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert self.close(got, want, length)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_inverse_matches_irfft(self, length, shape):
        xhat = half_spectrum(length, shape, seed=length + 1)
        want = np.fft.irfft(xhat, n=length, axis=0, norm="ortho")
        got = irdft_factor(xhat, length)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert self.close(got, want, length)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_round_trip(self, length, shape):
        x = RNG(length + 2).standard_normal((length,) + shape)
        back = irdft_factor(rdft_factor(x), length)
        assert np.max(np.abs(back - x)) <= 1e-14 * np.max(np.abs(x))

    @pytest.mark.parametrize("length", [n for n in LENGTHS
                                        if n <= transform._MATRIX_MAX_LENGTH])
    def test_self_conjugate_frequencies_are_real(self, length):
        # frequency 0, and length/2 for an even length
        real = [0, length // 2] if length % 2 == 0 else [0]
        x = RNG(length + 3).standard_normal((length, 5))
        xhat = rdft_factor(x)
        assert np.all(xhat.imag[real] == 0)
        # the inverse reads no imaginary part of those frequencies
        dropped = xhat.copy()
        dropped.imag[real] = RNG(length + 4).standard_normal((len(real), 5))
        assert np.array_equal(irdft_factor(dropped, length),
                              irdft_factor(xhat, length))
