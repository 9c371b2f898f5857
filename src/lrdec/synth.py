"""Seeded generators for synthetic problems.

Used by the command-line ``synth`` command, the demos and the test suite
to build fully reproducible dictionaries, activations and signals without
external data.
"""

import numpy as np

from .convmodel import Dictionary, forward_model
from .tensor import KruskalTensor

__all__ = [
    "make_filters",
    "make_activations",
    "make_problem",
    "smooth_low_rank",
]


def _blur_wrap(x, axes):
    """Circular Gaussian blur (sigma 0.8) of `x` along `axes`, in order.

    Each axis is correlated with the ``2 r + 1`` taps ``exp(-t^2 / (2
    sigma^2))``, ``r = int(4 sigma + 0.5)``, normalised to sum 1, indices
    taken modulo the axis length, so supports shorter than the kernel wrap
    too.  The sum is accumulated as ``scipy.ndimage.gaussian_filter(x,
    sigma, mode="wrap")`` does for a symmetric kernel, the centre tap and
    then ``(x[i - j] + x[i + j]) w_j`` for ``j = r, ..., 1``, so the two
    agree bit for bit.
    """
    sigma = 0.8
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    w = (w / w.sum())[radius:]
    for axis in axes:
        i = np.arange(x.shape[axis])
        out = x * w[0]
        for j in range(radius, 0, -1):
            out += (x.take((i - j) % len(i), axis=axis)
                    + x.take((i + j) % len(i), axis=axis)) * w[j]
        x = out
    return x


def make_filters(support, m_count, seed, channels=1, style="noise"):
    """Random unit-Frobenius-norm filter bank.

    ``style="noise"`` draws i.i.d. Gaussian taps; ``style="smooth"``
    additionally blurs each filter along every axis with a circular
    Gaussian of standard deviation 0.8 taps, which favours smooth
    reconstructions in completion problems.
    """
    if m_count < 1:
        raise ValueError(f"need at least one filter, got {m_count}")
    if style not in ("noise", "smooth"):
        raise ValueError(f"unknown filter style {style!r}")
    rng = np.random.default_rng(seed)
    filters = rng.standard_normal((m_count, channels) + tuple(support))
    if style == "smooth":
        filters = _blur_wrap(filters, range(2, filters.ndim))
    for m in range(m_count):
        filters[m] /= np.linalg.norm(filters[m])
    if channels == 1:
        return Dictionary(filters[:, 0])
    return Dictionary(filters, channels=True)


def make_activations(shape, m_count, rank, seed):
    """Seeded Gaussian rank-`rank` activations, one per filter."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    return [KruskalTensor([rng.standard_normal((s, rank)) for s in shape])
            for _ in range(m_count)]


def make_problem(shape, support, m_count, rank, seed, channels=1,
                 style="noise"):
    """Dictionary, activations and the signal they compose.

    Returns ``(dictionary, activations, signal)`` with
    ``signal == forward_model(dictionary, activations)``.
    """
    dictionary = make_filters(support, m_count, seed, channels=channels,
                              style=style)
    activations = make_activations(shape, m_count, rank, seed + 1)
    return dictionary, activations, forward_model(dictionary, activations)


def smooth_low_rank(shape, rank, seed):
    """Smooth factored tensor scaled into [0, 1].

    Sums `rank` outer products of random low-frequency profiles, then
    shifts and scales the result to span the unit interval.  Each profile
    is a constant plus a sine and a cosine at each of the first two
    harmonics of its mode's length.  Deterministic per (shape, rank, seed).
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)

    def profile(n):
        t = np.linspace(0.0, 1.0, n, endpoint=False)
        out = rng.standard_normal() * np.ones(n)
        for k in (1, 2):
            out += rng.standard_normal() * np.sin(2 * np.pi * k * t)
            out += rng.standard_normal() * np.cos(2 * np.pi * k * t)
        return out

    factors = [np.stack([profile(s) for _ in range(rank)], axis=1)
               for s in shape]
    out = KruskalTensor(factors).full()
    out -= out.min()
    peak = out.max()
    if peak > 0:
        out /= peak
    return out
