"""Reconstruction quality and representation efficiency metrics.

:func:`psnr` and :func:`mse` rate a reconstruction against its reference
and :func:`compression_ratio` rates the activations that make it; the
``reconstruct`` and ``metrics`` commands report the three side by side.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import _activation_factors, _as_real

__all__ = [
    "mse",
    "psnr",
    "CompressionStats",
    "compression_ratio",
]


def mse(reference, estimate):
    """Mean squared elementwise error between two equal-shape tensors."""
    reference = _as_real(reference, "reference")
    estimate = _as_real(estimate, "estimate")
    if reference.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs "
                         f"{estimate.shape}")
    diff = reference - estimate
    return float(np.mean(diff * diff))


def psnr(reference, estimate, peak=1.0):
    """Peak signal-to-noise ratio ``10 log10(peak^2 / mse)`` in dB.

    Identical inputs return ``inf``.  `peak` defaults to 1 for data scaled
    into the unit interval; pass the true dynamic range otherwise.
    """
    if not (np.isfinite(peak) and peak > 0):
        raise ValueError(f"peak must be finite and positive, got {peak}")
    err = mse(reference, estimate)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / err))


@dataclass
class CompressionStats:
    """Sparsity summary of a set of activations.

    ``nnz`` counts factor entries above ``eps_rel`` times the largest
    absolute entry; ``cr`` is signal elements, channels included, per
    surviving entry.
    """

    cr: float
    nnz: int


def compression_ratio(activations, signal_shape, eps_rel=1e-6):
    """Compression ratio of a factored representation.

    Parameters
    ----------
    activations : sequence
        Per-filter activations (:class:`KruskalTensor` or factor lists).
    signal_shape : tuple of int
        Shape of the represented signal, its channel axis included: a
        C-channel signal has C times the elements of one activation.
    eps_rel : float
        Relative magnitude threshold under which a stored coefficient
        counts as zero, finite and in ``[0, 1)``.

    Returns
    -------
    CompressionStats
        ``cr`` is ``inf`` when no coefficient survives the threshold.
    """
    if not (np.isfinite(eps_rel) and 0 <= eps_rel < 1):
        raise ValueError(f"eps_rel must be finite and in [0, 1), got "
                         f"{eps_rel}")
    factors = [f for fs in _activation_factors(activations) for f in fs]
    total = int(np.prod(tuple(signal_shape)))
    peak = max((float(np.max(np.abs(f))) for f in factors), default=0.0)
    nnz = sum(int(np.sum(np.abs(f) > eps_rel * peak)) for f in factors) \
        if peak > 0 else 0
    cr = float("inf") if nnz == 0 else total / nnz
    return CompressionStats(cr=cr, nnz=nnz)
