"""Unitary DFTs of real tensors and real factor matrices.

All transforms are scaled by ``1/sqrt(I)`` per mode, so they are unitary:
norms and inner products are preserved.  A rank-R factored tensor is
separable, so its full N-D transform equals the factored tensor rebuilt
from the 1-D transforms of its factor columns.

The fits' block solves carry only frequencies ``0..I//2`` (the half
spectrum) of a real factor along its mode, the rest being their
conjugates; :func:`rdft_factor` and :func:`irdft_factor` are those
real-input, real-output transforms.  No fit transforms the signal.
:func:`dft_nd` and :func:`dft_factor` are the full complex spectra the
acceptance criteria build their spectral vectors from; no inverse of
them is kept, since every inverse a fit needs returns a real array.
"""

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


def rdft_factor(x):
    """Frequencies ``0..I//2`` of :func:`dft_factor` of a real factor."""
    return np.fft.rfft(x, axis=0, norm="ortho")


def irdft_factor(xhat, length):
    """Inverse of :func:`rdft_factor`, dropping the imaginary parts of the
    self-conjugate frequencies (0, and ``length/2`` for even `length`)."""
    return np.fft.irfft(xhat, n=length, axis=0, norm="ortho")
