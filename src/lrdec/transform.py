"""Unitary DFT for dense tensors and for per-mode factor matrices.

All transforms are scaled by ``1/sqrt(I)`` per mode in both directions, so
forward and inverse are unitary: norms and inner products are preserved.
A rank-R factored tensor is separable, so its full N-D transform equals the
factored tensor rebuilt from the 1-D transforms of its factor columns.

The fits' block solves carry only frequencies ``0..I//2`` (the half
spectrum) of a real factor along its mode, the rest being their
conjugates; :func:`rdft_factor` and :func:`irdft_factor` are those
real-input transforms.  No fit transforms the signal.
"""

import numpy as np

__all__ = [
    "ImaginaryResidueError",
    "dft_nd",
    "idft_nd",
    "idft_nd_complex",
    "dft_factor",
    "idft_factor",
    "rdft_factor",
    "irdft_factor",
]


class ImaginaryResidueError(ValueError):
    """Inverse transform of supposedly conjugate-symmetric data came out
    with a non-negligible imaginary part."""


def _strip_imag(z, residue_tol, what):
    imag_max = np.abs(z.imag).max() if z.size else 0.0
    real_max = np.abs(z.real).max() if z.size else 0.0
    if imag_max > residue_tol * real_max:
        raise ImaginaryResidueError(
            f"{what}: imaginary residue {imag_max:.3e} exceeds "
            f"{residue_tol:.1e} * {real_max:.3e}; upstream data is not "
            f"conjugate-symmetric")
    return np.ascontiguousarray(z.real)


def dft_nd(t):
    """Unitary forward DFT along every mode of `t`.

    Returns a complex tensor of the same shape with
    ``norm(dft_nd(t)) == norm(t)``.
    """
    return np.fft.fftn(t, norm="ortho")


def idft_nd_complex(s):
    """Unitary inverse DFT, keeping the full complex result."""
    return np.fft.ifftn(s, norm="ortho")


def idft_nd(s, residue_tol=1e-9):
    """Unitary inverse DFT of the spectrum of a real tensor, returned real.

    Raises :class:`ImaginaryResidueError` when ``max|imag| / max|real|`` of
    the inverse exceeds `residue_tol`: the spectrum was not
    conjugate-symmetric.
    """
    return _strip_imag(idft_nd_complex(s), residue_tol, "idft_nd")


def dft_factor(x, axis=0):
    """Unitary 1-D DFT of each column of a factor matrix.

    `axis` selects the transform length; with the default the input is a
    single ``(I_n, R)`` factor, with ``axis=1`` a stacked ``(M, I_n, R)``
    batch transforms all factors at once.
    """
    return np.fft.fft(x, axis=axis, norm="ortho")


def idft_factor(xhat, axis=0, residue_tol=1e-9):
    """Inverse of :func:`dft_factor`, returning the real factor.

    Raises :class:`ImaginaryResidueError` when the input is not the
    spectrum of a real factor within `residue_tol`.
    """
    z = np.fft.ifft(xhat, axis=axis, norm="ortho")
    return _strip_imag(z, residue_tol, "idft_factor")


def rdft_factor(x, axis=0):
    """Frequencies ``0..I//2`` of :func:`dft_factor` of a real factor."""
    return np.fft.rfft(x, axis=axis, norm="ortho")


def irdft_factor(xhat, length, axis=0):
    """Inverse of :func:`rdft_factor`, dropping the imaginary parts of the
    self-conjugate frequencies (0, and ``length/2`` for even `length`)."""
    return np.fft.irfft(xhat, n=length, axis=axis, norm="ortho")

