"""Forward convolutional model and its per-mode operator.

The model synthesizes a signal as ``sum_m d_m (*) K_m`` with ``(*)`` the
N-dimensional circular convolution, ``d_m`` small-support filters and
``K_m`` rank-R factored activation tensors.  For a fixed mode ``n`` the map
from the stacked mode-n factors to the model output is linear; that map
is :class:`SpectralOperator`.  The operator never materializes its matrix.

The operator has two forms, each made on first use and cached: the Gram
blocks of its normal equations, which the unitary DFT along mode ``n``
splits into one small Hermitian block per mode-n frequency, and the real
mode-n convolution taps, on which the map itself runs.  Filters and
factors are real, so along mode ``n`` every spectrum is
conjugate-symmetric and the Gram blocks are built for frequencies
``0..I_n//2`` (the half spectrum) only.  No operator makes filter spectra;
:func:`filter_spectra` serves :func:`forward_model`, the independent FFT
reference that the taps are checked against.

Gram blocks in the lag domain
-----------------------------
Block ``i`` contracts over the ``Lambda`` frequencies of the other modes,
but by Parseval and the convolution theorem it equals a sum over the lags
of the small filter support::

    G_i[(m,r),(m',r')] = sum_delta K_mm'[delta, i]
                         * prod_{k != n} R^k_(m,r),(m',r')[delta_k]

with ``delta = u - v`` a lag of the other modes and

* ``p_{m,c,i}[u]``: filter ``(m, c)`` transformed along mode ``n`` only
  (unnormalized DFT), at frequency ``i`` and other-mode position ``u``;
* ``K_mm'[delta, i] = sum_c sum_{u - v = delta} conj(p_{m,c,i}[u])
  p_{m',c,i}[v]``, a fit-constant filter cross-correlation made by
  :func:`filter_correlations`, with ``|delta_k| < L_k``;
* ``R^k[delta] = sum_s f_k[m][s, r] f_k[m'][(s + delta) mod I_k, r']``, the
  circular lag correlation of the real mode-``k`` factor columns, made per
  operator from ``(M*R)**2`` numbers per lag.

``R^k`` has period ``I_k``, so when ``2 L_k - 1 > I_k`` the lags are folded
modulo ``I_k`` and the aliased terms of ``K`` summed.  Mode ``k`` then
keeps ``J_k = min(2 L_k - 1, I_k)`` lags, stored in DFT order: lag index
``q`` stands for ``delta_k = q`` when ``q < L_k`` and for ``q - J_k``
(negative, or an alias modulo ``I_k``) otherwise.  The contraction length
``J = prod_{k != n} J_k`` is never longer than ``Lambda``.

Mode-n taps
-----------
The map runs in the signal domain.  Channel ``c`` of the model output,
unfolded along mode ``n``, is::

    Y_c = sum_{tau < L_n} S_tau X B_c[tau]

with ``X`` the ``(I_n, M*R)`` mode-n factors, ``S_tau`` the cyclic shift
down by ``tau`` rows and row ``(m, r)`` of ``B_c[tau]`` the filter slice
``d_{m,c}[tau, .]`` at mode-n tap ``tau`` circularly convolved with
``prod_{k != n} f_k[m][:, r]``: the output, seen through tap ``tau``, for a
unit impulse at row 0 of factor column ``(m, r)``.  So the forward map is
one gather and one real product ``[S_0 X ... S_{L_n-1} X] @ B``, and the
adjoint ``Z B^T`` and ``L_n`` shifted row sums, with
:meth:`SpectralOperator.conv_taps` the ``(L_n*M*R, C*Lambda)`` stack of
the ``B_c[tau]``.  Its columns run over the channels and then the other
modes in ascending order, the last fastest (not the order of ``unfold``):
the row layout of :func:`stack_to_rows`.  Its work grows with ``L_n``.
The fits call these row maps (:meth:`SpectralOperator.tap_maps`); the
vector API wraps them in unitary DFTs of arbitrary complex spectra.

Vector layouts
--------------
Factor-side vectors stack ``vec(Xhat_m)`` over filters ``m`` (column-major
vec: frequency index fastest, then rank), giving length ``M*R*I_n``.
Signal-side vectors stack, per channel, the column-major vec of the mode-n
unfolding, giving length ``C * I_n * Lambda``.
"""

import numpy as np

from .tensor import co_size, kruskal_reconstruct, KruskalTensor
from .transform import dft_nd, idft_nd

__all__ = [
    "Dictionary",
    "circular_convolve",
    "filter_spectra",
    "filter_correlations",
    "forward_model",
    "SpectralOperator",
    "factor_to_vec",
    "vec_to_factor",
    "signal_to_vec",
    "vec_to_signal",
    "stack_to_rows",
    "rows_to_stack",
]


class Dictionary:
    """A bank of M small-support filters, optionally per channel.

    Parameters
    ----------
    filters : ndarray
        ``(M, L_0, ..., L_{N-1})`` for single-channel filters, or
        ``(M, C, L_0, ..., L_{N-1})`` with ``channels=True``.
    channels : bool
        Interpret the second axis as a channel axis.
    """

    def __init__(self, filters, channels=False):
        arr = np.asarray(filters, dtype=float)
        min_ndim = 3 if channels else 2
        if arr.ndim < min_ndim:
            raise ValueError(f"filter array of ndim {arr.ndim} too flat for "
                             f"channels={channels}")
        if not channels:
            arr = arr[:, None]
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"need at least one filter and one channel, got "
                             f"shape {arr.shape}")
        if any(s < 1 for s in arr.shape[2:]):
            raise ValueError(f"empty filter support {arr.shape[2:]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("filters contain non-finite values")
        self.filters = arr

    @property
    def num_filters(self):
        return self.filters.shape[0]

    @property
    def num_channels(self):
        return self.filters.shape[1]

    @property
    def support(self):
        return self.filters.shape[2:]

    @property
    def ndim(self):
        """Number of spatial modes the filters act on."""
        return len(self.support)

    def filter(self, m, c=0):
        return self.filters[m, c]

    def check_signal_shape(self, shape):
        """Validate the filter support against a signal shape.

        Support must not exceed the signal in any mode and must be strictly
        smaller in at least one.
        """
        shape = tuple(shape)
        if len(shape) != self.ndim:
            raise ValueError(f"signal order {len(shape)} != filter order "
                             f"{self.ndim}")
        if any(l > i for l, i in zip(self.support, shape)):
            raise ValueError(f"filter support {self.support} exceeds signal "
                             f"shape {shape}")
        if not any(l < i for l, i in zip(self.support, shape)):
            raise ValueError(f"filter support {self.support} must be strictly "
                             f"smaller than the signal {shape} in at least "
                             f"one mode")

    def __repr__(self):
        return (f"Dictionary(M={self.num_filters}, C={self.num_channels}, "
                f"support={self.support})")


def pad_to_shape(filt, shape):
    """Zero-pad a filter to `shape`, anchored at the origin corner."""
    filt = np.asarray(filt)
    shape = tuple(shape)
    if filt.ndim != len(shape):
        raise ValueError(f"filter order {filt.ndim} != target order {len(shape)}")
    if any(l > i for l, i in zip(filt.shape, shape)):
        raise ValueError(f"filter support {filt.shape} exceeds shape {shape}")
    out = np.zeros(shape, dtype=filt.dtype)
    out[tuple(slice(0, l) for l in filt.shape)] = filt
    return out


def circular_convolve(filt, activation):
    """N-dimensional circular convolution of a small filter with a signal.

    Matches the direct definition
    ``out[t] = sum_tau filt[tau] * activation[(t - tau) mod I]``
    computed through the DFT; the filter is zero-padded to the activation
    shape at the origin corner.
    """
    activation = np.asarray(activation, dtype=float)
    padded = pad_to_shape(np.asarray(filt, dtype=float), activation.shape)
    spec = dft_nd(padded) * dft_nd(activation) * np.sqrt(activation.size)
    return idft_nd(spec)


def filter_spectra(dictionary, shape):
    """Unnormalized FFTs of the filters zero-padded to `shape`.

    Returns the ``(M, C, *shape)`` complex stack that :func:`forward_model`
    reads; no fit and no :class:`SpectralOperator` makes it.
    """
    shape = tuple(int(s) for s in shape)
    dictionary.check_signal_shape(shape)
    return np.array([[np.fft.fftn(pad_to_shape(f, shape)) for f in bank]
                     for bank in dictionary.filters], dtype=complex)


def _lags(support, length):
    """The folded lags ``delta mod length`` of a length-`support`
    correlation, in DFT order (see the module docstring)."""
    count = min(2 * support - 1, length)
    q = np.arange(count)
    return np.where(q < support, q, q - count) % length


def filter_correlations(dictionary, shape, mode):
    """Lag-domain filter cross-correlations ``K`` of one mode's Gram blocks.

    Returns the ``(M, M, J, I_n//2 + 1)`` complex stack with
    ``[m, m', q, i]`` the folded ``K_mm'[delta, i]`` of the module
    docstring, ``q`` running over the lags of the other modes in ascending
    mode order (C order, one :func:`_lags` set per mode).  Constant over a
    fit, so a fit makes it once per mode.
    """
    shape = tuple(int(s) for s in shape)
    dictionary.check_signal_shape(shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    counts = [len(_lags(dictionary.support[k], shape[k]))
              for k in range(len(shape)) if k != mode]
    axes = tuple(range(2, 2 + len(counts)))
    # p[m, c, u..., i]: real filters transformed along `mode`, where the
    # half spectrum 0..I_n//2 is exactly what rfft returns
    p = np.moveaxis(np.fft.rfft(dictionary.filters, n=shape[mode],
                                axis=2 + mode), 2 + mode, -1)
    # circular cross-correlation on J_k points folds the lags mod J_k:
    # exact for J_k = 2 L_k - 1, the fold mod I_k for J_k = I_k
    spec = np.fft.fftn(p, s=counts, axes=axes)
    cross = np.einsum("ac...,bc...->ab...", spec.conj(), spec)
    corr = np.fft.fftn(cross, axes=axes) / np.prod(counts)
    m_count = dictionary.num_filters
    return np.ascontiguousarray(
        corr.reshape(m_count, m_count, -1, corr.shape[-1]))


def _factor_lag_correlations(f, lags):
    """``R[m, m', r, r', q] = sum_s f[m, s, r] f[m', (s + lags[q]) % I, r']``
    of a real factor stack `f` of shape ``(M, I, R)``."""
    m_count, length, rank = f.shape
    shifted = f[:, (np.arange(length) + lags[:, None]) % length]  # (M,J,I,R)
    rows = f.transpose(0, 2, 1).reshape(m_count * rank, length)
    cols = shifted.transpose(2, 0, 3, 1).reshape(length, -1)
    corr = (rows @ cols).reshape(m_count, rank, m_count, rank, len(lags))
    return corr.transpose(0, 2, 1, 3, 4)


def _activation_factors(activations):
    """Normalize a list of activations to per-filter factor lists."""
    out = []
    for a in activations:
        if isinstance(a, KruskalTensor):
            out.append(a.factors)
        else:
            out.append([np.asarray(f) for f in a])
    return out


def forward_model(dictionary, activations):
    """Synthesize the signal ``sum_m d_m (*) K_m``.

    Parameters
    ----------
    dictionary : Dictionary
        M filters; with C > 1 channels the output gains a trailing channel
        axis and channel ``c`` uses filters ``d_{m,c}`` with the activations
        shared across channels.
    activations : sequence
        M activation tensors, each a :class:`KruskalTensor` or a factor
        list, all with the signal shape and a common rank.

    Returns
    -------
    ndarray
        ``(I_0, ..., I_{N-1})``, or ``(..., C)`` for multichannel filters.
    """
    factors = _activation_factors(activations)
    if len(factors) != dictionary.num_filters:
        raise ValueError(f"{len(factors)} activations for "
                         f"{dictionary.num_filters} filters")
    shape = tuple(f.shape[0] for f in factors[0])
    rank = factors[0][0].shape[1]
    for m, fs in enumerate(factors):
        if tuple(f.shape[0] for f in fs) != shape:
            raise ValueError(f"activation {m} shape mismatch")
        if any(f.shape[1] != rank for f in fs):
            raise ValueError(f"activation {m} rank mismatch")
    dictionary.check_signal_shape(shape)

    spectra = filter_spectra(dictionary, shape)
    khat = np.stack([dft_nd(kruskal_reconstruct(fs)) for fs in factors])
    out = np.stack([idft_nd(np.sum(spectra[:, c] * khat, axis=0))
                    for c in range(dictionary.num_channels)], axis=-1)
    return out[..., 0] if dictionary.num_channels == 1 else out


def factor_to_vec(x):
    """Stack ``(M, I, R)`` factors into the canonical factor-side vector."""
    x = np.asarray(x)
    return x.transpose(0, 2, 1).reshape(-1)


def vec_to_factor(v, num_filters, length, rank):
    """Inverse of :func:`factor_to_vec`."""
    v = np.asarray(v)
    if v.size != num_filters * rank * length:
        raise ValueError(f"vector length {v.size} != M*R*I = "
                         f"{num_filters * rank * length}")
    return v.reshape(num_filters, rank, length).transpose(0, 2, 1)


def signal_to_vec(y):
    """Stack ``(C, I, Lambda)`` unfolding rows into the signal-side vector."""
    y = np.asarray(y)
    return y.transpose(0, 2, 1).reshape(-1)


def vec_to_signal(v, num_channels, length, lam):
    """Inverse of :func:`signal_to_vec`."""
    v = np.asarray(v)
    if v.size != num_channels * length * lam:
        raise ValueError(f"vector length {v.size} != C*I*Lambda = "
                         f"{num_channels * length * lam}")
    return v.reshape(num_channels, lam, length).transpose(0, 2, 1)


def stack_to_rows(stack, mode):
    """A ``(C, *shape)`` stack as the ``(I_n, C*Lambda)`` output rows of the
    mode-`mode` taps: mode `mode` first, then the channels and the other
    modes in ascending order, the last fastest."""
    return np.moveaxis(stack, 1 + mode, 0).reshape(stack.shape[1 + mode], -1)


def rows_to_stack(rows, shape, mode):
    """Inverse of :func:`stack_to_rows` for a signal of spatial `shape`."""
    rest = [s for k, s in enumerate(shape) if k != mode]
    return np.moveaxis(rows.reshape([shape[mode], -1] + rest), 0, 1 + mode)


class SpectralOperator:
    """Linear map from one mode's factors to the model output.

    For mode ``n`` and fixed factors on all other modes, maps the stacked
    spectral factors ``xhat`` (length ``M*R*I_n``) to the stacked spectra of
    ``sum_m d_m (*) K_m`` unfolded along ``n`` (length ``C*I_n*Lambda``),
    both under the unitary DFT.  It runs the real mode-n taps between an
    inverse DFT along mode ``n`` and a forward N-D DFT in ``unfold`` order.

    Two forms, each made on first use and cached: the half-spectrum Gram
    blocks of its normal equations and the mode-n taps.  Immutable
    otherwise; reuse one instance for all solves of the same mode while
    the other factors are fixed.

    Parameters
    ----------
    dictionary : Dictionary
    signal_shape : tuple of int
    factors : sequence of ndarray
        Per mode, the stacked real factors ``(M, I_k, R)``.  The entry at
        `mode` only fixes the dimensions; its values are not used.
    mode : int
    correlations : ndarray, optional
        The dictionary's :func:`filter_correlations` at `signal_shape` and
        `mode`; made here when omitted.
    """

    def __init__(self, dictionary, signal_shape, factors, mode,
                 correlations=None):
        shape = tuple(int(s) for s in signal_shape)
        n_modes = len(shape)
        if not 0 <= mode < n_modes:
            raise ValueError(f"mode {mode} out of range for shape {shape}")
        if len(factors) != n_modes:
            raise ValueError(f"{len(factors)} factor blocks for order-"
                             f"{n_modes} signal")
        dictionary.check_signal_shape(shape)
        factors = [np.asarray(f) for f in factors]
        m_count = dictionary.num_filters
        rank = factors[0].shape[-1:]  # () for a 0-d block, rejected below
        for k, f in enumerate(factors):
            if f.shape != (m_count, shape[k]) + rank:
                raise ValueError(f"factor block {k} has shape {f.shape}, "
                                 f"expected an (M, I_{k}, R) stack of shape "
                                 f"{(m_count, shape[k]) + rank}")
        rank = rank[0]
        self._lags = [(k, _lags(dictionary.support[k], shape[k]))
                      for k in range(n_modes) if k != mode]
        if correlations is None:
            correlations = filter_correlations(dictionary, shape, mode)
        expected = (m_count, m_count,
                    int(np.prod([len(q) for _, q in self._lags])),
                    shape[mode] // 2 + 1)
        if correlations.shape != expected:
            raise ValueError(f"filter correlations of shape "
                             f"{correlations.shape}, expected {expected}")

        self.mode = mode
        self.signal_shape = shape
        self.num_filters = m_count
        self.num_channels = dictionary.num_channels
        self.rank = rank
        self.mode_length = shape[mode]
        self.lam = co_size(shape, mode)
        self._factors = factors
        # (M*M, J, 2 * (I_n//2 + 1)): K with the real and imaginary parts
        # interleaved, the layout the real Gram contraction reads; a view
        self._corr = np.ascontiguousarray(correlations).reshape(
            m_count * m_count, expected[2], expected[3]).view(float)
        self._dictionary = dictionary
        self._gram = None
        self._taps = None
        self._tap_maps = None

    @property
    def factor_size(self):
        return self.num_filters * self.rank * self.mode_length

    @property
    def signal_size(self):
        return self.num_channels * self.mode_length * self.lam

    def apply_arrays(self, xhat):
        """Map spectral factors ``(M, I_n, R)`` to output spectra
        ``(C, I_n, Lambda)``."""
        x = np.fft.ifft(xhat, axis=1, norm="ortho").transpose(1, 0, 2)
        y = rows_to_stack(self.tap_maps()[0](x), self.signal_shape, self.mode)
        yhat = np.fft.fftn(y, axes=tuple(range(1, y.ndim)), norm="ortho")
        # unfold order: the other modes ascending, the first fastest
        return np.moveaxis(yhat, 1 + self.mode, 1).reshape(
            self.num_channels, self.mode_length, -1, order="F")

    def adjoint_arrays(self, yhat):
        """Adjoint of :meth:`apply_arrays` under the complex inner product."""
        rest = [s for k, s in enumerate(self.signal_shape) if k != self.mode]
        yhat = np.moveaxis(np.reshape(
            yhat, [self.num_channels, self.mode_length] + rest, order="F"),
            1, 1 + self.mode)
        y = np.fft.ifftn(yhat, axes=tuple(range(1, yhat.ndim)), norm="ortho")
        x = self.tap_maps()[1](stack_to_rows(y, self.mode))
        return np.fft.fft(x.reshape(self.mode_length, self.num_filters, -1)
                          .transpose(1, 0, 2), axis=1, norm="ortho")

    def apply(self, xhat_vec):
        """Vector form of :meth:`apply_arrays`."""
        x = vec_to_factor(np.asarray(xhat_vec, dtype=complex),
                          self.num_filters, self.mode_length, self.rank)
        return signal_to_vec(self.apply_arrays(x))

    def apply_adjoint(self, yhat_vec):
        """Vector form of :meth:`adjoint_arrays`."""
        y = vec_to_signal(np.asarray(yhat_vec, dtype=complex),
                          self.num_channels, self.mode_length, self.lam)
        return factor_to_vec(self.adjoint_arrays(y))

    def gram_blocks(self):
        """Half-spectrum Gram blocks of the operator.

        The normal matrix ``W^H W`` is block-diagonal over the mode-n
        frequency index, and block ``I_n - i`` is the conjugate of block
        ``i``.  Each block is built in the lag domain of the module
        docstring, over ``J`` lags instead of ``Lambda`` frequencies.
        Returns the ``(I_n//2 + 1, M*R, M*R)`` Hermitian PSD stack of
        frequencies ``0..I_n//2``, cached; :meth:`normal_blocks` gives the
        full one.
        """
        if self._gram is not None:
            return self._gram
        m_count, rank = self.num_filters, self.rank
        # T[m, m', r, r', q] = prod_k R^k[m, m', r, r', q_k], with q running
        # over the lag sets in C order like the lag axis of K
        lagged = np.ones((m_count, m_count, rank, rank, 1))
        for k, lags in self._lags:
            corr = _factor_lag_correlations(self._factors[k], lags)
            lagged = (lagged[..., None] * corr[..., None, :]).reshape(
                m_count, m_count, rank, rank, -1)
        # per filter pair, (R*R, J) @ (J, 2H) with K's real and imaginary
        # parts interleaved gives the complex (R*R, H) block entries
        pairs = lagged.reshape(m_count * m_count, rank * rank, -1) @ self._corr
        half = pairs.shape[-1] // 2
        gram = pairs.view(complex).reshape(m_count, m_count, rank, rank, half)
        size = m_count * rank
        self._gram = gram.transpose(4, 0, 2, 1, 3).reshape(half, size, size)
        return self._gram

    def conv_taps(self):
        """The real ``(L_n*M*R, C*Lambda)`` mode-n convolution taps ``B`` of
        the module docstring, cached."""
        if self._taps is not None:
            return self._taps
        d = self._dictionary.filters
        # t[m, r, c, tau, sigma..., i...]: contract the filter lags sigma_k
        # of the other modes, the last first, with the shifted factor columns
        # f_k[m][(i_k - sigma_k) mod I_k, r]
        t = np.repeat(np.moveaxis(d, 2 + self.mode, 2)[:, None], self.rank, 1)
        for done, (k, _) in enumerate(reversed(self._lags)):
            f, support = self._factors[k], d.shape[2 + k]
            rows = np.subtract.outer(np.arange(f.shape[1]), np.arange(support))
            shifts = f[:, rows.T % f.shape[1]].transpose(0, 3, 1, 2)
            pos = t.ndim - 1 - done  # sigma_k, with the done i axes after it
            t = np.moveaxis(np.moveaxis(t, pos, -1) @ np.expand_dims(
                shifts, tuple(range(2, t.ndim - 2))), -1, pos)
        self._taps = np.moveaxis(t, 3, 0).reshape(-1, d.shape[1] * self.lam)
        return self._taps

    def tap_maps(self):
        """The taps' forward map and its adjoint, cached: ``(I_n, M*R)``
        factor rows to and from :func:`stack_to_rows` output rows."""
        if self._tap_maps is not None:
            return self._tap_maps
        taps, length = self.conv_taps(), self.mode_length
        tau = np.arange(taps.shape[0] // (self.num_filters * self.rank))
        rows = np.arange(length)[:, None]
        lagged = (rows - tau) % length
        # adjoint row i sums row (i + tau) mod I_n of (z B_tau^T) over tau
        leading = (rows + tau) % length * len(tau) + tau

        def forward(x):
            return np.take(x, lagged, axis=0).reshape(length, -1) @ taps

        def adjoint(z):
            w = (z @ taps.T).reshape(length * len(tau), -1)
            return np.take(w, leading, axis=0).sum(axis=1)

        self._tap_maps = forward, adjoint
        return self._tap_maps

    def normal_blocks(self, regularizer):
        """Regularized normal-equation blocks ``W^H W + reg I``.

        Returns the full ``(I_n, M*R, M*R)`` stack of Hermitian
        positive-definite systems, mirrored from :meth:`gram_blocks`;
        ``regularizer`` must be positive.
        """
        if not regularizer > 0:
            raise ValueError(f"regularizer must be positive, got {regularizer}")
        half = self.gram_blocks()
        mirrored = half[1:self.mode_length - len(half) + 1][::-1]
        blocks = np.concatenate([half, mirrored.conj()])
        idx = np.arange(blocks.shape[1])
        blocks[:, idx, idx] += regularizer
        return blocks

    def materialize(self):
        """Dense matrix of the operator, for validation at tiny sizes."""
        cols = [self.apply(e) for e in np.eye(self.factor_size, dtype=complex)]
        return np.stack(cols, axis=1)
