"""Unitary DFTs of real tensors and real factor matrices.

All transforms are scaled by ``1/sqrt(I)`` per mode, so they are unitary:
norms and inner products are preserved.  A rank-R factored tensor is
separable, so its full N-D transform equals the factored tensor rebuilt
from the 1-D transforms of its factor columns.

The fits' block solves carry only frequencies ``0..I//2`` (the half
spectrum) of a real factor along its mode, the rest being their
conjugates; :func:`rdft_factor` and :func:`irdft_factor` are those
real-input, real-output transforms, and every half spectrum a mode visit
makes (the ridge solve, the ADMM and the CG preconditioner) goes through
them.  :func:`dft_nd` and :func:`dft_factor` are the full complex spectra
the acceptance criteria build their spectral vectors from.

For mode lengths up to ``_MATRIX_MAX_LENGTH`` (64) the half-spectrum pair
is one real product with an ``(I, I)`` DFT matrix, cached read-only per
length (64 KiB at I = 64); above it, numpy's ``rfft`` and ``irfft``, since
from I = 128 the product's O(I^2) work per column costs more than the
FFT.  The two sides agree to roundoff.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "dft_nd",
    "dft_factor",
    "rdft_factor",
    "irdft_factor",
]


def dft_nd(t):
    """Unitary forward DFT along every mode of `t`.

    Returns a complex tensor of the same shape with
    ``norm(dft_nd(t)) == norm(t)``.
    """
    return np.fft.fftn(t, norm="ortho")


def dft_factor(x, axis=0):
    """Unitary 1-D DFT of each column of a factor matrix.

    `axis` selects the transform length; with the default the input is a
    single ``(I_n, R)`` factor, with ``axis=1`` a stacked ``(M, I_n, R)``
    batch transforms all factors at once.
    """
    return np.fft.fft(x, axis=axis, norm="ortho")


# mode lengths up to this transform as products with cached DFT matrices,
# longer ones by numpy's FFT
_MATRIX_MAX_LENGTH = 64


@lru_cache(maxsize=32)
def _dft_matrices(length):
    """The read-only real ``(I, I)`` matrices of the half-spectrum pair for
    a mode of length ``I``.  The forward one stacks the unitary cos rows
    of frequencies ``0..I//2``, which give the real parts of the half
    spectrum, over the -sin rows of ``1..(I-1)//2``, which give the
    imaginary parts; those of 0 and ``I/2`` are 0 for a real input.  The
    inverse is its transpose with the columns of the frequencies that
    stand for a conjugate pair doubled."""
    half = length // 2 + 1
    angle = ((np.outer(np.arange(half), np.arange(length)) + length // 2)
             % length - length // 2) * (2 * np.pi / length)
    pairs = angle[1:(length + 1) // 2]
    forward = np.concatenate([np.cos(angle), -np.sin(pairs)]) / np.sqrt(length)
    weight = np.full(length, 2.0)
    weight[0] = 1.0
    if length % 2 == 0:
        weight[half - 1] = 1.0
    maps = (forward, forward.T * weight)
    for a in maps:
        a.setflags(write=False)
    return maps


def rdft_factor(x):
    """Frequencies ``0..I//2`` of :func:`dft_factor` of a real 1-D or
    ``(I, K)`` factor.  Up to ``_MATRIX_MAX_LENGTH`` one real product with
    the cached forward matrix gives them, with the imaginary parts of
    frequencies 0 and ``I/2`` exactly 0; longer factors run numpy's
    ``rfft``."""
    length = len(x)
    if length > _MATRIX_MAX_LENGTH:
        return np.fft.rfft(x, axis=0, norm="ortho")
    half = length // 2 + 1
    parts = _dft_matrices(length)[0] @ x
    xhat = parts[:half].astype(complex)
    xhat.imag[1:(length + 1) // 2] = parts[half:]
    return xhat


def irdft_factor(xhat, length):
    """Inverse of :func:`rdft_factor`, dropping the imaginary parts of the
    self-conjugate frequencies (0, and ``length/2`` for even `length`).
    Up to ``_MATRIX_MAX_LENGTH`` one real product with the cached inverse
    matrix, which never reads those parts; longer ones run numpy's
    ``irfft``."""
    if length > _MATRIX_MAX_LENGTH:
        return np.fft.irfft(xhat, n=length, axis=0, norm="ortho")
    parts = [xhat.real, xhat.imag[1:(length + 1) // 2]]
    return _dft_matrices(length)[1] @ np.concatenate(parts)
