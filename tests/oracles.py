"""Brute-force reference implementations used as independent oracles.

Everything here is written from the defining formulas with explicit loops
or literal matrix constructions, deliberately avoiding the library's own
code paths so that agreement is meaningful.
"""

import numpy as np


def unfold_by_enumeration(t, mode):
    """Mode unfolding by enumerating the index map entry by entry."""
    t = np.asarray(t)
    others = [k for k in range(t.ndim) if k != mode]
    lam = 1
    for o in others:
        lam *= t.shape[o]
    out = np.zeros((t.shape[mode], lam), dtype=t.dtype)
    for idx in np.ndindex(t.shape):
        j = 0
        stride = 1
        for o in others:
            j += idx[o] * stride
            stride *= t.shape[o]
        out[idx[mode], j] = t[idx]
    return out


def kruskal_by_outer_sums(factors):
    """Rank-R reconstruction as an explicit sum of outer products."""
    factors = [np.asarray(f) for f in factors]
    shape = tuple(f.shape[0] for f in factors)
    rank = factors[0].shape[1]
    dtype = complex if any(np.iscomplexobj(f) for f in factors) else float
    out = np.zeros(shape, dtype=dtype)
    for r in range(rank):
        comp = factors[0][:, r]
        for f in factors[1:]:
            comp = np.multiply.outer(comp, f[:, r])
        out = out + comp
    return out


def khatri_rao_by_columns(a, b):
    """Column-wise Kronecker product via an explicit per-column loop."""
    a = np.asarray(a)
    b = np.asarray(b)
    cols = [np.kron(a[:, r], b[:, r]) for r in range(a.shape[1])]
    return np.stack(cols, axis=1)


def circular_convolve_by_sums(filt, activation):
    """Direct circular convolution: out[t] = sum_tau f[tau] a[(t-tau) % I]."""
    filt = np.asarray(filt, dtype=float)
    act = np.asarray(activation, dtype=float)
    out = np.zeros(act.shape)
    for t in np.ndindex(act.shape):
        s = 0.0
        for tau in np.ndindex(filt.shape):
            src = tuple((ti - taui) % ii for ti, taui, ii in
                        zip(t, tau, act.shape))
            s += filt[tau] * act[src]
        out[t] = s
    return out


def vec_colmajor(m):
    """Column-major vectorization of a matrix."""
    return np.asarray(m).reshape(-1, order="F")


def pad_origin(filt, shape):
    out = np.zeros(shape, dtype=float)
    out[tuple(slice(0, l) for l in np.asarray(filt).shape)] = filt
    return out


def materialize_w(filters, shape, factors, mode):
    """Literal construction of the per-mode spectral operator matrix.

    Builds, per filter m and channel c, ``diag(vec(unfold(Dhat_m)))`` times
    ``kron(Qhat_m, I)`` and assembles the horizontal (filters) and vertical
    (channels) stacking.  ``filters`` has shape (M, C, *support); ``factors``
    is the per-mode list of (M, I_k, R) real stacks (entry `mode` ignored).

    Returns the dense complex matrix of shape (C*I_n*Lambda, M*R*I_n).
    """
    filters = np.asarray(filters, dtype=float)
    shape = tuple(shape)
    n_modes = len(shape)
    m_count, c_count = filters.shape[:2]
    i_n = shape[mode]
    rank = np.asarray(factors[0]).shape[2]
    lam = 1
    for k, s in enumerate(shape):
        if k != mode:
            lam *= s

    fhat = [np.fft.fft(np.asarray(f), axis=1) / np.sqrt(np.asarray(f).shape[1])
            for f in factors]

    blocks = []
    for c in range(c_count):
        row = []
        for m in range(m_count):
            spec = np.fft.fftn(pad_origin(filters[m, c], shape))
            diag = np.diag(vec_colmajor(unfold_by_enumeration(spec, mode)))
            if n_modes == 1:
                qhat = np.ones((1, rank), dtype=complex)
            else:
                qhat = None
                for k in reversed(range(n_modes)):
                    if k == mode:
                        continue
                    qhat = fhat[k][m] if qhat is None else \
                        khatri_rao_by_columns(qhat, fhat[k][m])
            row.append(diag @ np.kron(qhat, np.eye(i_n)))
        blocks.append(np.hstack(row))
    return np.vstack(blocks)


def gram_blocks_by_pairs(filters, shape, factors, mode):
    """Per-frequency Gram blocks of the per-mode operator, filter pair by
    filter pair.

    Entry ``((m, r), (m', r'))`` of block ``i`` is
    ``sum_{c,l} conj(dhat_m[c,i,l] qhat_m[l,r]) dhat_m'[c,i,l] qhat_m'[l,r']``,
    with ``dhat`` the unfolded filter spectra and ``qhat`` the Khatri-Rao
    chain, both rebuilt here from the oracles above.  Arguments are as in
    :func:`materialize_w`.  Returns the full ``(I_n, M*R, M*R)`` stack.
    """
    filters = np.asarray(filters, dtype=float)
    shape = tuple(shape)
    n_modes = len(shape)
    m_count, c_count = filters.shape[:2]
    rank = np.asarray(factors[0]).shape[2]
    fhat = [np.fft.fft(np.asarray(f), axis=1) / np.sqrt(np.asarray(f).shape[1])
            for f in factors]
    dhat, qhat = [], []
    for m in range(m_count):
        dhat.append(np.stack([
            unfold_by_enumeration(np.fft.fftn(pad_origin(filters[m, c], shape)),
                                  mode) for c in range(c_count)]))
        q = np.ones((1, rank), dtype=complex) if n_modes == 1 else None
        for k in reversed(range(n_modes)):
            if k != mode:
                q = fhat[k][m] if q is None else \
                    khatri_rao_by_columns(q, fhat[k][m])
        qhat.append(q)

    size = m_count * rank
    gram = np.zeros((shape[mode], size, size), dtype=complex)
    for m in range(m_count):
        for mp in range(m, m_count):
            cross = np.einsum("cil,cil->il", dhat[m].conj(), dhat[mp])
            pair = qhat[m].conj()[:, :, None] * qhat[mp][:, None, :]
            blk = np.tensordot(cross, pair, axes=(1, 0))  # (I_n, R, R)
            gram[:, m * rank:(m + 1) * rank, mp * rank:(mp + 1) * rank] = blk
            if mp > m:
                gram[:, mp * rank:(mp + 1) * rank, m * rank:(m + 1) * rank] = \
                    blk.conj().transpose(0, 2, 1)
    return gram


def mirror_half_blocks(half, length):
    """The full ``(length, K, K)`` stack of per-frequency blocks from the
    half stack of frequencies ``0..length//2``.

    The normal matrix of a real map is conjugate-symmetric over the
    frequencies: block ``length - i`` is the conjugate of block ``i``.
    """
    full = np.empty((length,) + half.shape[1:], dtype=complex)
    for i in range(length):
        full[i] = half[i] if i < len(half) else np.conj(half[length - i])
    return full


def fold_by_enumeration(m, mode, shape):
    """Inverse of :func:`unfold_by_enumeration` via the same index map."""
    m = np.asarray(m)
    shape = tuple(shape)
    others = [k for k in range(len(shape)) if k != mode]
    out = np.zeros(shape, dtype=m.dtype)
    for idx in np.ndindex(shape):
        j = 0
        stride = 1
        for o in others:
            j += idx[o] * stride
            stride *= shape[o]
        out[idx] = m[idx[mode], j]
    return out


def materialize_spatial_forward(filters, shape, factors, mode):
    """Real matrix of the masked-free spatial forward map for one mode.

    Column ``(m, r, i)`` (i fastest) is the model output when the mode
    factor stack is zero except for a one at ``factors[mode][m][i, r]``,
    built from the brute-force reconstruction and convolution oracles.
    Rows stack channels, each channel's tensor vectorized column-major.
    """
    filters = np.asarray(filters, dtype=float)
    shape = tuple(shape)
    m_count, c_count = filters.shape[:2]
    i_n = shape[mode]
    rank = np.asarray(factors[0]).shape[2]
    size = int(np.prod(shape))
    cols = []
    for m in range(m_count):
        for r in range(rank):
            for i in range(i_n):
                basis = np.zeros((i_n, rank))
                basis[i, r] = 1.0
                fac = [np.asarray(factors[k])[m] if k != mode else basis
                       for k in range(len(shape))]
                k_m = kruskal_by_outer_sums(fac)
                col = np.empty(c_count * size)
                for c in range(c_count):
                    out = circular_convolve_by_sums(filters[m, c], k_m)
                    col[c * size:(c + 1) * size] = out.reshape(-1, order="F")
                cols.append(col)
    return np.stack(cols, axis=1)


def ista_l1(a, s, lam, step=None, iters=20000, tol=1e-14):
    """Proximal-gradient reference for min .5||Ax - s||^2 + lam ||x||_1."""
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    if step is None:
        step = 1.0 / np.linalg.norm(a, 2) ** 2
    x = np.zeros(a.shape[1])
    for _ in range(iters):
        g = a.T @ (a @ x - s)
        z = x - step * g
        x_new = np.sign(z) * np.maximum(np.abs(z) - step * lam, 0.0)
        if np.linalg.norm(x_new - x) <= tol * max(1.0, np.linalg.norm(x)):
            x = x_new
            break
        x = x_new
    return x


def admm_l1_by_frequency(gram, rhs, lam, state, iters, tol_primal, tol_dual,
                         adaptive):
    """Reference scaled ADMM for one mode's l1 subproblem, on ``(M, I_n, R)``
    factor stacks, with a dense solve of ``G_i + rho I`` at every frequency
    ``i`` of every step.

    ``gram`` is the full ``(I_n, M*R, M*R)`` Gram stack, ``rhs`` the real
    ``W^T s`` stack and ``state`` a dict with the stacks ``x``, ``y``,
    ``u``, the penalty ``rho``, the step count ``iterations`` and the
    residual lists ``primal`` and ``dual``, updated in place; ``rhos``
    collects the penalty after each step.  Returns ``state``.
    """
    m_count, length, rank = rhs.shape
    size = m_count * rank
    rhat = np.fft.fft(rhs, axis=1) / np.sqrt(length)
    x, y, u, rho = state["x"], state["y"], state["u"], state["rho"]
    for _ in range(iters):
        zhat = np.fft.fft(y - u, axis=1) / np.sqrt(length)
        xhat = np.empty(zhat.shape, dtype=complex)
        for i in range(length):
            b = (rhat[:, i] + rho * zhat[:, i]).reshape(size)
            sol = np.linalg.solve(gram[i] + rho * np.eye(size), b)
            xhat[:, i] = sol.reshape(m_count, rank)
        x = (np.fft.ifft(xhat, axis=1) * np.sqrt(length)).real
        y_prev = y
        v = x + u
        y = np.sign(v) * np.maximum(np.abs(v) - lam / rho, 0.0)
        u = u + x - y
        primal = np.linalg.norm(x - y)
        dual = rho * np.linalg.norm(y - y_prev)
        primal_rel = primal / max(np.linalg.norm(x), np.linalg.norm(y), 1e-30)
        dual_rel = dual / max(rho * np.linalg.norm(u), 1e-30)
        state["iterations"] += 1
        state["primal"].append(primal_rel)
        state["dual"].append(dual_rel)
        if primal_rel <= tol_primal and dual_rel <= tol_dual:
            state["rhos"].append(rho)
            break
        if adaptive:
            if primal > 10.0 * dual:
                rho, u = rho * 2.0, u / 2.0
            elif dual > 10.0 * primal:
                rho, u = rho / 2.0, u * 2.0
        state["rhos"].append(rho)
    state.update(x=x, y=y, u=u, rho=rho)
    return state
