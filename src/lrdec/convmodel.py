"""Forward convolutional model and its per-mode operator.

The model synthesizes a signal as ``sum_m d_m (*) K_m`` with ``(*)`` the
N-dimensional circular convolution, ``d_m`` small-support filters and
``K_m`` rank-R factored activation tensors.  For a fixed mode ``n`` the map
from the stacked mode-n factors to the model output is linear; that map
is :class:`SpectralOperator`.  The operator never materializes its matrix.

The operator builds the real mode-n convolution taps, on which the map
itself runs, when it is made.  The Gram blocks of its normal equations,
which the unitary DFT along mode ``n`` splits into one small Hermitian
block per mode-n frequency, are built from them on each request.
Filters and factors are real, so along mode ``n`` every spectrum is
conjugate-symmetric and the Gram blocks are built for frequencies
``0..I_n//2`` (the half spectrum) only.  A mode visit builds only what
depends on the factors: the taps and the Gram blocks.  The arrays that
depend on the mode length ``I_n`` and support ``L_n`` alone (the gather
rows, which the taps build reads too, the adjoint's indices and the
cos/sin phase matrix of the Gram blocks) are made once per ``(I_n, L_n)``
and kept read-only in one small bounded cache keyed by those two ints,
which holds no factor or filter data.  No operator makes filter spectra;
:func:`forward_model`, the FFT reference for the taps, multiplies them into
activation spectra built from the factors' 1-D DFTs, never dense tensors.

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
the row layout of :func:`stack_to_rows`.  They are built in place: one
batched matrix product over ``(M, R)`` per other mode contracts its
filter lags, and the last writes the taps through a view.  The fits call
these row maps (:meth:`SpectralOperator.forward` and
:meth:`SpectralOperator.adjoint`); the vector API,
:meth:`SpectralOperator.apply` and :meth:`SpectralOperator.apply_adjoint`,
wraps them in unitary DFTs of arbitrary complex spectra.

Gram blocks from the taps
-------------------------
With ``B_tau`` the ``(M*R, C*Lambda)`` rows of tap ``tau``, the normal map
is ``X -> sum_{tau, tau'} S_{tau - tau'} X B_tau B_tau'^T``, a circulant in
the mode-n rows.  Its lag products::

    P[d] = sum_tau B_tau B_{tau + d}^T,    |d| < L_n,

are added up unfolded, one contiguous slice per tap ``tau``, and the DFT
along mode ``n`` turns the circulant into the block
``G_i = sum_d P[d] exp(-2 pi j i d / I_n)`` per frequency.  So the half
spectrum of blocks is one product of the ``(I_n//2 + 1, 2 L_n - 1)``
cos/sin phase matrix with the ``2 L_n - 1`` lag sums; the phases have
period ``I_n`` in ``d``, so when ``2 L_n - 1 > I_n`` (``S_d`` has period
``I_n``) the product adds the aliased lags by itself.  The Gram blocks
reuse the visit's taps through one real product ``B B^T``.

Known limit: the taps' work grows with ``L_n``, and the Gram build, whose
``B B^T`` has ``(L_n*M*R)**2`` entries, as ``L_n**2``.

Vector layouts
--------------
Both sides use one layout: the column-major vec of each leading slice
(mode-n index fastest), stacked in order.  Factor-side vectors stack
``vec(Xhat_m)`` over filters ``m``, giving length ``M*R*I_n``; signal-side
vectors stack the mode-n unfoldings over channels, giving length
``C * I_n * Lambda``.
"""

from functools import lru_cache

import numpy as np

from .tensor import (_activation_factors, _as_real, co_size,
                     kruskal_reconstruct)

__all__ = [
    "Dictionary",
    "forward_model",
    "SpectralOperator",
    "factor_to_vec",
    "vec_to_factor",
    "signal_to_vec",
    "vec_to_signal",
    "stack_to_rows",
    "factors_to_rows",
    "rows_to_factors",
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
        arr = _as_real(filters, "filters")
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


def forward_model(dictionary, activations):
    """Synthesize the signal ``sum_m d_m (*) K_m``.

    The FFT reference the taps are checked against; it reads no
    :class:`SpectralOperator`.  ``Khat_m`` is the Kruskal tensor of the
    factors' 1-D DFTs (``rfft`` along the last mode), so a filter costs one
    ``rfftn`` of its bank and one rank-R rebuild on the half spectrum, one
    ``irfftn`` ends it, and no activation is dense: memory is a few half
    spectra per channel.

    Parameters
    ----------
    dictionary : Dictionary
        M filters; with C > 1 channels the output gains a trailing channel
        axis and channel ``c`` uses filters ``d_{m,c}`` with the activations
        shared across channels.
    activations : sequence
        M activation tensors, each a :class:`KruskalTensor` or a factor
        list of real matrices, all with the signal shape and a common rank.

    Returns
    -------
    ndarray
        ``(I_0, ..., I_{N-1})``, or ``(..., C)`` for multichannel filters.
    """
    factors = _activation_factors(activations)
    if len(factors) != dictionary.num_filters:
        raise ValueError(f"{len(factors)} activations for "
                         f"{dictionary.num_filters} filters")
    for m, fs in enumerate(factors):
        if not fs:
            raise ValueError(f"activation {m} has no factors")
        for k, f in enumerate(fs):
            if f.ndim != 2:
                raise ValueError(f"activation {m} factor {k} is not a matrix "
                                 f"(ndim={f.ndim})")
    shape = tuple(f.shape[0] for f in factors[0])
    rank = factors[0][0].shape[1]
    for m, fs in enumerate(factors):
        if tuple(f.shape[0] for f in fs) != shape:
            raise ValueError(f"activation {m} shape mismatch")
        if any(f.shape[1] != rank for f in fs):
            raise ValueError(f"activation {m} rank mismatch")
    dictionary.check_signal_shape(shape)

    spatial, spec = tuple(range(len(shape))), 0
    for fs, bank in zip(factors, dictionary.filters):
        # rfftn zero-pads the (*support, C) bank at the origin corner
        khat = kruskal_reconstruct([np.fft.fft(f, axis=0) for f in fs[:-1]]
                                   + [np.fft.rfft(fs[-1], axis=0)])
        spec += np.fft.rfftn(np.moveaxis(bank, 0, -1), s=shape,
                             axes=spatial) * khat[..., None]
    out = np.fft.irfftn(spec, s=shape, axes=spatial)
    return out[..., 0] if dictionary.num_channels == 1 else out


def factor_to_vec(x):
    """Stack a ``(K, I, W)`` array into one vector: the column-major vec of
    each leading slice, in order.  Factor stacks ``(M, I_n, R)`` and signal
    unfoldings ``(C, I_n, Lambda)`` share it as ``signal_to_vec``."""
    return np.asarray(x).transpose(0, 2, 1).reshape(-1)


def vec_to_factor(v, lead, length, width):
    """Inverse of :func:`factor_to_vec` to shape ``(lead, length, width)``."""
    v = np.asarray(v)
    if v.size != lead * length * width:
        raise ValueError(f"vector length {v.size} != {lead}*{length}*{width} "
                         f"= {lead * length * width}")
    return v.reshape(lead, width, length).transpose(0, 2, 1)


signal_to_vec, vec_to_signal = factor_to_vec, vec_to_factor


def stack_to_rows(stack, mode):
    """A ``(C, *shape)`` stack as the ``(I_n, C*Lambda)`` output rows of the
    mode-`mode` taps: mode `mode` first, then the channels and the other
    modes in ascending order, the last fastest."""
    return np.moveaxis(stack, 1 + mode, 0).reshape(stack.shape[1 + mode], -1)


def factors_to_rows(x):
    """An ``(M, I_n, R)`` factor stack as the taps' ``(I_n, M*R)`` rows."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def rows_to_factors(rows, num_filters):
    """Inverse of :func:`factors_to_rows`."""
    return rows.reshape(len(rows), num_filters, -1).transpose(1, 0, 2)


@lru_cache(maxsize=32)
def _mode_maps(length, count):
    """The read-only arrays of a mode of length ``I`` and filter support
    ``L``, which depend on no factors or filters: the ``(I, L)`` gather
    rows ``(i - tau) mod I`` of :meth:`SpectralOperator.forward`, which
    :meth:`SpectralOperator.conv_taps` reads for a mode's filter lags; the
    flat indices ``(i + tau) mod I * L + tau`` of the rows of
    ``z B_tau^T`` that adjoint row ``i`` sums over ``tau < L``; and the
    ``(2 (I//2 + 1), 2 L - 1)`` stacked cos/sin phase matrix
    ``exp(-2 pi j i d / I)`` of :meth:`SpectralOperator.gram_blocks`, for
    frequencies ``i <= I//2`` and lags ``|d| < L``.  It has period ``I``
    in ``d``, so the product folds the aliased lags by itself; ``i d`` is
    reduced to ``|i d| <= I / 2``."""
    tau = np.arange(count)
    rows = np.arange(length)[:, None]
    angle = ((np.outer(np.arange(length // 2 + 1),
                       np.arange(1 - count, count)) + length // 2)
             % length - length // 2) * (2 * np.pi / length)
    maps = ((rows - tau) % length, (rows + tau) % length * count + tau,
            np.concatenate([np.cos(angle), -np.sin(angle)]))
    for a in maps:
        a.setflags(write=False)
    return maps


class SpectralOperator:
    """Linear map from one mode's factors to the model output.

    For mode ``n`` and fixed factors on all other modes, maps the stacked
    spectral factors ``xhat`` (length ``M*R*I_n``) to the stacked spectra of
    ``sum_m d_m (*) K_m`` unfolded along ``n`` (length ``C*I_n*Lambda``),
    both under the unitary DFT.  :meth:`apply` runs the real mode-n taps
    between an inverse DFT along mode ``n`` and a forward N-D DFT in
    ``unfold`` order; :meth:`apply_adjoint` runs them back.  The fits skip
    these spectral vectors and call the row maps :meth:`forward` and
    :meth:`adjoint`.

    The mode-n taps are built with the operator, and each call of
    :meth:`gram_blocks` builds the half-spectrum Gram blocks of its normal
    equations from them; the index arrays and the phase matrix are
    shared, read-only, by every operator of the same ``(I_n, L_n)``.
    Immutable; reuse one instance for all solves of the same mode while
    the other factors are fixed.

    Parameters
    ----------
    dictionary : Dictionary
    signal_shape : tuple of int
    factors : sequence of ndarray
        Per mode, the stacked real factors ``(M, I_k, R)``.  The entry at
        `mode` only fixes the dimensions; its values are not used.
    mode : int
    """

    def __init__(self, dictionary, signal_shape, factors, mode):
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

        self.mode = mode
        self.signal_shape = shape
        self.num_filters = m_count
        self.num_channels = dictionary.num_channels
        self.rank = rank[0]
        self.mode_length = shape[mode]
        self.lam = co_size(shape, mode)
        self._factors = factors
        self._dictionary = dictionary
        self._taps = self.conv_taps()
        self._lagged, self._leading, self._phase_matrix = _mode_maps(
            self.mode_length, dictionary.support[mode])

    @property
    def factor_size(self):
        return self.num_filters * self.rank * self.mode_length

    @property
    def signal_size(self):
        return self.num_channels * self.mode_length * self.lam

    def apply(self, xhat_vec):
        """Map stacked spectral factors (length ``M*R*I_n``) to stacked
        output spectra (length ``C*I_n*Lambda``)."""
        xhat = vec_to_factor(np.asarray(xhat_vec, dtype=complex),
                             self.num_filters, self.mode_length, self.rank)
        x = factors_to_rows(np.fft.ifft(xhat, axis=1, norm="ortho"))
        rest = [s for k, s in enumerate(self.signal_shape) if k != self.mode]
        # the forward rows as (I_n, C, *other modes)
        y = self.forward(x).reshape([self.mode_length, self.num_channels]
                                    + rest)
        yhat = np.fft.fftn(y, axes=[0, *range(2, y.ndim)], norm="ortho")
        # unfold order: the other modes ascending, the first fastest
        return signal_to_vec(yhat.swapaxes(0, 1).reshape(
            self.num_channels, self.mode_length, -1, order="F"))

    def apply_adjoint(self, yhat_vec):
        """Adjoint of :meth:`apply` under the complex inner product."""
        yhat = vec_to_signal(np.asarray(yhat_vec, dtype=complex),
                             self.num_channels, self.mode_length, self.lam)
        rest = [s for k, s in enumerate(self.signal_shape) if k != self.mode]
        yhat = np.moveaxis(np.reshape(
            yhat, [self.num_channels, self.mode_length] + rest, order="F"),
            1, 1 + self.mode)
        y = np.fft.ifftn(yhat, axes=tuple(range(1, yhat.ndim)), norm="ortho")
        x = self.adjoint(stack_to_rows(y, self.mode))
        return factor_to_vec(np.fft.fft(rows_to_factors(x, self.num_filters),
                                        axis=1, norm="ortho"))

    def gram_blocks(self):
        """Half-spectrum Gram blocks of the operator.

        The normal matrix ``W^H W`` is block-diagonal over the mode-n
        frequency index, and block ``I_n - i`` is the conjugate of block
        ``i``.  The blocks are one phase product of the unfolded lag
        products of the taps (see the module docstring).  Returns the
        ``(I_n//2 + 1, M*R, M*R)`` Hermitian PSD stack of frequencies
        ``0..I_n//2``, built anew on each call; each mode solver shifts it
        by a multiple of the identity.
        """
        taps, size = self._taps, self.num_filters * self.rank
        count, length = len(taps) // size, self.mode_length
        # pairs[tau, :, tau', :] = B_tau B_tau'^T, added into P[tau' - tau],
        # stored at lag + L_n - 1
        pairs = (taps @ taps.T).reshape(count, size, count, size)
        lagged = np.zeros((2 * count - 1, size, size))
        for tau in range(count):
            lagged[count - 1 - tau:2 * count - 1 - tau] += (
                pairs[tau].transpose(1, 0, 2))
        parts = self._phase_matrix @ lagged.reshape(2 * count - 1, -1)
        gram = np.empty((length // 2 + 1, size, size), dtype=complex)
        gram.real, gram.imag = parts.reshape((2,) + gram.shape)
        return gram

    def conv_taps(self):
        """Build the real ``(L_n*M*R, C*Lambda)`` mode-n convolution taps
        ``B`` of the module docstring in place, the last mode first; the
        operator builds them once, when it is made."""
        d, n = self._dictionary.filters, self.mode
        lead = (d.shape[2 + n], self.num_filters, self.rank, d.shape[1])
        others = [k for k in range(len(self.signal_shape)) if k != n]
        taps = np.empty((lead[0] * lead[1] * lead[2], lead[3] * self.lam))

        def written(tail):  # the taps as t[m, r, c, tau, *tail]
            return np.moveaxis(taps.reshape(lead + tail), 0, 3)

        # t[m, r, c, tau, sigma..., i...]: the filter lags sigma_k of the
        # modes left to contract, then the rows i_k of the contracted ones;
        # contracting mode k takes f_k[m][(i_k - sigma_k) mod I_k, r]
        t = np.ascontiguousarray(np.moveaxis(d, 2 + n, 2))[:, None]
        if not others:
            written(())[...] = t
        for j in reversed(range(len(others))):
            f = self._factors[others[j]].transpose(0, 2, 1)  # (M, R, I_k)
            lags = _mode_maps(f.shape[2], d.shape[2 + others[j]])[0]
            first = j == len(others) - 1
            if first:  # sigma_k is the last axis: t @ S, S (L_k, I_k)
                s, core = f.take(lags.T, 2), (t.shape[-2], f.shape[2])
            else:  # sigma_k precedes the i axes: S^T @ t, S^T (I_k, L_k)
                t = t.reshape(t.shape[:5 + j] + (-1,))
                s, core = f.take(lags, 2), (f.shape[2], t.shape[-1])
            s = s.reshape(s.shape[:2] + (1,) * (t.ndim - 4) + s.shape[2:])
            # the product's axes after (m, r, c, tau)
            out = written((t.shape[2:-2] + core)[2:]) if j == 0 else None
            t = np.matmul(*((t, s) if first else (s, t)), out=out)
        return taps

    def forward(self, x):
        """The taps' forward map: ``(I_n, M*R)`` factor rows to the
        :func:`stack_to_rows` output rows."""
        return x.take(self._lagged, axis=0).reshape(
            self.mode_length, -1) @ self._taps

    def adjoint(self, z):
        """Adjoint of :meth:`forward`: output rows to factor rows."""
        w = (z @ self._taps.T).reshape(self._leading.size, -1)
        return np.add.reduce(w.take(self._leading, axis=0), axis=1)
