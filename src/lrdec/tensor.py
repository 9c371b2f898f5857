"""Dense and Kruskal tensor primitives.

Dense tensors are plain :class:`numpy.ndarray` objects.  Multi-indices are
0-based in code; linear orderings (unfolding columns, vectorisation) always
run with the earliest mode varying fastest, which matches Fortran-order
storage and makes the mode-0 unfolding a pure reshape.
"""

import math
from functools import reduce

import numpy as np

__all__ = [
    "co_size",
    "unfold",
    "fold",
    "khatri_rao",
    "build_q",
    "kruskal_reconstruct",
    "KruskalTensor",
]


def _as_real(x, name):
    """`x` as a float array; complex input raises rather than losing its
    imaginary part."""
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def co_size(shape, mode):
    """Product of all dimensions of `shape` except ``shape[mode]``."""
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    return math.prod(shape) // shape[mode]


def unfold(t, mode):
    """Mode-`mode` matricization of a tensor.

    Element ``(i, j)`` of the result equals ``t[i_0, ..., i_{N-1}]`` with
    ``i = i_mode`` and the column index enumerating the remaining modes in
    ascending order, earliest mode varying fastest:
    ``j = sum_g i_{c_g} * prod_{g' < g} I_{c_{g'}}``.

    Parameters
    ----------
    t : ndarray
        Tensor to unfold.
    mode : int
        Mode whose fibres become the rows, ``0 <= mode < t.ndim``.

    Returns
    -------
    ndarray
        Matrix of shape ``(t.shape[mode], co_size(t.shape, mode))``.
    """
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    return np.moveaxis(t, mode, 0).reshape((t.shape[mode], -1), order="F")


def fold(m, mode, shape):
    """Inverse of :func:`unfold`: rebuild the tensor of shape `shape`.

    Parameters
    ----------
    m : ndarray
        A mode-`mode` unfolding, shape ``(shape[mode], co_size(shape, mode))``.
    mode : int
        Mode along which `m` was unfolded.
    shape : tuple of int
        Shape of the original tensor.

    Returns
    -------
    ndarray
        Tensor with ``unfold(fold(m, mode, shape), mode) == m``.
    """
    m = np.asarray(m)
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    rest = shape[:mode] + shape[mode + 1 :]
    expected = (shape[mode], int(np.prod(rest, dtype=np.int64)) if rest else 1)
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} inconsistent with mode-{mode} "
                         f"unfolding of shape {shape} (expected {expected})")
    t = m.reshape((shape[mode],) + rest, order="F")
    return np.moveaxis(t, 0, mode)


def khatri_rao(a, b):
    """Column-wise Kronecker product of two matrices.

    Column ``r`` of the result is ``kron(a[:, r], b[:, r])``; the row index
    of `b` varies fastest.

    Parameters
    ----------
    a : ndarray, shape (I, R)
    b : ndarray, shape (J, R)

    Returns
    -------
    ndarray, shape (I * J, R)
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    return (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[1])


def build_q(factors, mode):
    """Chained Khatri-Rao product of all factors except ``factors[mode]``.

    The chain runs over the skipped-mode complement in descending mode
    order, so that row ``j`` of the result enumerates the non-`mode`
    indices with the earliest mode varying fastest.  This is the matrix
    ``Q`` satisfying ``unfold(kruskal_reconstruct(factors), mode)
    == factors[mode] @ Q.T``.

    Parameters
    ----------
    factors : sequence of ndarray
        Factor matrices, each ``(I_n, R)``; at least two.
    mode : int
        Factor to omit.

    Returns
    -------
    ndarray, shape (co_size(shape, mode), R)
    """
    n = len(factors)
    if n < 2:
        raise ValueError("build_q needs at least two factors; a single-mode "
                         "problem reduces to a direct linear solve")
    if not 0 <= mode < n:
        raise ValueError(f"mode {mode} out of range for {n} factors")
    chain = [np.asarray(factors[k]) for k in reversed(range(n)) if k != mode]
    cols = {c.shape[1] for c in chain}
    if len(cols) != 1:
        raise ValueError(f"factors have mismatched column counts: {sorted(cols)}")
    return reduce(khatri_rao, chain)


def kruskal_reconstruct(factors):
    """Materialize the rank-R tensor defined by a list of factor matrices.

    Returns ``sum_r factors[0][:, r] o ... o factors[N-1][:, r]`` where
    ``o`` is the vector outer product.

    Parameters
    ----------
    factors : sequence of ndarray or KruskalTensor
        Factor matrices ``(I_n, R)`` with a common ``R``.

    Returns
    -------
    ndarray, shape (I_0, ..., I_{N-1})
    """
    if isinstance(factors, KruskalTensor):
        factors = factors.factors
    factors = [np.asarray(f) for f in factors]
    if not factors:
        raise ValueError("need at least one factor matrix")
    for f in factors:
        if f.ndim != 2:
            raise ValueError("factors must be matrices")
    shape = tuple(f.shape[0] for f in factors)
    if len(factors) == 1:
        return factors[0].sum(axis=1)
    m0 = factors[0] @ build_q(factors, 0).T
    return fold(m0, 0, shape)


class KruskalTensor:
    """A tensor stored in factored rank-R form.

    Parameters
    ----------
    factors : sequence of ndarray
        One ``(I_n, R)`` matrix per mode, all sharing the column count R.
        Column ``r`` across the factors defines one rank-1 component.
    """

    def __init__(self, factors):
        factors = [np.asarray(f) for f in factors]
        if not factors:
            raise ValueError("need at least one factor matrix")
        ranks = set()
        for n, f in enumerate(factors):
            if f.ndim != 2:
                raise ValueError(f"factor {n} is not a matrix (ndim={f.ndim})")
            if f.shape[0] < 1 or f.shape[1] < 1:
                raise ValueError(f"factor {n} has empty shape {f.shape}")
            ranks.add(f.shape[1])
        if len(ranks) != 1:
            raise ValueError(f"factors have mismatched ranks: {sorted(ranks)}")
        self.factors = factors

    @property
    def shape(self):
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ndim(self):
        return len(self.factors)

    @property
    def rank(self):
        return self.factors[0].shape[1]

    def full(self):
        """Materialize the dense tensor."""
        return kruskal_reconstruct(self.factors)

    def __repr__(self):
        return f"KruskalTensor(shape={self.shape}, rank={self.rank})"


def _activation_factors(activations):
    """Per-filter lists of real float factor arrays from activations, each
    a :class:`KruskalTensor` or a factor list; complex factors raise."""
    out = []
    for m, a in enumerate(activations):
        fs = [np.asarray(f) for f in
              (a.factors if isinstance(a, KruskalTensor) else a)]
        if any(np.iscomplexobj(f) for f in fs):
            raise ValueError(f"activation {m} has complex factors")
        out.append([f.astype(float, copy=False) for f in fs])
    return out
