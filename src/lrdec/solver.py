"""Per-mode solvers and the alternating sweep that drives them.

The fit decomposes a signal as ``sum_m d_m (*) K_m`` by cycling over the
tensor modes and, for each mode, minimizing over that mode's stacked
factors while the others stay fixed.  One private object, :class:`_Fit`,
runs every fit, and :meth:`_Fit.sweep` is its one sweep loop: a mode visit
builds the mode's :class:`SpectralOperator`, and :meth:`_Fit.visit`, the
one place that picks a solver from the fit's mask and ``cfg.reg``, calls
it on that operator, scores the objective and applies the solver's budget
warning, rise rule and failure message.

The sweep hands each ADMM or CG visit a copy of the config whose inner
tolerances carry a forcing term (Eisenstat & Walker, "Choosing the forcing
terms in an inexact Newton method", 1996): ``max(tol, min(cap tol, 1e-3
change))``, with ``change`` the last sweep's relative objective change and
``cap`` ``_CG_CAP`` for the CG's ``cg_tol`` and ``_ADMM_CAP`` for the
ADMM's ``tol_primal`` and ``tol_dual``.  So a converged fit's visits meet
the configured tolerances, and a budget warning means a visit missed its
forced one.  On a sweep whose forced ``cg_tol`` is looser than the
configured one, a CG visit also stops once its residual is ``_CG_FLOOR``
of its warm start's, which counts as met.  Between two sweeps the factors
are extrapolated with restart (Ang, Cohen, Hien & Gillis, "Extrapolated
alternating algorithms for approximate canonical polyadic decomposition",
2020): every mode's factors move to ``x_k + beta (x_k - x_{k-1})``, from
the factors at the ends of the last two sweeps, and the next sweep starts
there if the objective does not rise, else from ``x_k``; ``beta`` starts
at 0.5, grows by 1.1 (at most to 1) on an accepted step and shrinks by 1.5
on a rejected one.  Before each step an l2 or masked fit rebalances its
factors (:meth:`_Fit.rebalance`), which leaves the data term and cannot
raise the ridge term (the scaling indeterminacy of CP, Kolda & Bader,
"Tensor decompositions and applications", SIAM Review 2009).

The fit starts from the signal (:meth:`_Fit.start`).  It deconvolves the
signal once, per N-D frequency, by the matched filter
``K_m = sum_c conj(D_mc) S_c / (P + eps max P)`` with
``P = sum_{m,c} |D_mc|^2`` and ``eps = _START_EPS``, the per-frequency
decoupling of convolutional sparse coding (Wohlberg, "Efficient
algorithms for convolutional sparse representations", IEEE TIP 2016), and
takes the leading eigenvectors of each ``K_m``'s unfolding Grams, the
HOSVD start of CP-ALS (Kolda & Bader, ibid., section 3.4).  An l1 fit
keeps the seeded random start.

The solvers, with the inner work a visit adds to
``SolveReport.inner_iters``:

* :func:`solve_mode_l2`, the closed-form ridge solve (squared-norm penalty
  on the factors), one LU of the half Gram stack plus ``alpha I``: 1;
* :func:`solve_mode_admm`, an ADMM loop for the l1 penalty, whose
  quadratic step is the ridge block solve with a proximal term ``rho``;
  one eigendecomposition of the visit's half Gram stack serves every
  ``rho`` the adaptive loop visits: its ADMM iterations.  That
  eigendecomposition (:func:`_eigh`) is the one step that uses a second
  thread, so l2 and masked fits start no thread;
* :func:`_solve_mode_masked_cg`, a conjugate-gradient solve for masked
  signals, where the spatial mask breaks the per-frequency decoupling,
  preconditioned by the unmasked per-frequency blocks with the mask taken
  as its observed fraction: the CG iterations it counts.  The CG is
  :func:`_pcg`, a short numpy loop whose arithmetic follows scipy's ``cg``
  step for step; the runtime imports numpy only.

Every fit applies the visit's map in the signal domain, on its mode-n
convolution taps (``SpectralOperator.forward`` and ``.adjoint``), which
the operator builds in place, with no FFT: the right-hand side ``W^H s``
is one real product with the taps and ``L_n`` shifted row sums (the MTTKRP
of CP-ALS); the objective ``0.5 ||P W x - s||^2``, with ``P`` the mask of
a masked fit, is one gather, one real product and one dot, plus the
visited mode's share of the regularizer; the CG matvec
(:func:`_masked_normal`) is the product and its adjoint.

The ridge and ADMM solves and the CG preconditioner run in the unitary DFT
domain, where the normal equations split into one small Hermitian system
per mode-n frequency.  Signal and factors are real, so these solves carry
only frequencies ``0..I_n//2`` along mode ``n``, as ``(I_n//2 + 1, M*R)``
rows (:func:`~lrdec.transform.rdft_factor`), with half-spectrum Gram
blocks built from the same taps; no mode visit makes filter spectra.  The
fit copies the signal stack, and a masked fit's mask stack, once per mode
into mode-major order (:func:`_mode_major`).
"""

import os
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .convmodel import (SpectralOperator, factor_to_vec, factors_to_rows,
                        forward_model, rows_to_factors, stack_to_rows,
                        vec_to_factor)
from .tensor import _as_real, KruskalTensor
from .transform import dft_factor, irdft_factor, rdft_factor

__all__ = [
    "SolverConfig",
    "AdmmState",
    "SolveReport",
    "solve_mode_l2",
    "solve_mode_admm",
    "data_term_gradient",
    "lrd_fit",
    "lrd_fit_masked",
]

_TINY = 1e-30


@dataclass
class SolverConfig:
    """Hyperparameters for :func:`lrd_fit` and :func:`lrd_fit_masked`.

    ``reg`` selects the penalty on the activation factors: ``"l1"`` with
    weight ``lam`` (solved by ADMM) or ``"l2"`` with weight ``alpha``
    (closed form).  The dictionary fixes the number of filters.  The
    inner tolerances ``cg_tol``, ``tol_primal`` and ``tol_dual`` are what
    a converged fit's visits meet; early visits run looser, by the
    forcing term of the module docstring.
    """

    reg: str = "l2"
    lam: float = 0.1
    alpha: float = 1e-4
    rank: int = 3
    rho_init: float = 1.0
    rho_adaptive: bool = True
    admm_iters: int = 50
    outer_iters: int = 100
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    tol_outer: float = 1e-9
    cg_tol: float = 1e-8
    cg_max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.reg not in ("l1", "l2"):
            raise ValueError(f"reg must be 'l1' or 'l2', got {self.reg!r}")
        for name in ("lam", "alpha"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got "
                                 f"{value}")
        minimums = {"rank": 1, "outer_iters": 1, "admm_iters": 1,
                    "cg_max_iters": 1, "seed": 0}
        for name, minimum in minimums.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")
        for name in ("rho_init", "tol_primal", "tol_dual", "tol_outer",
                     "cg_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got "
                                 f"{value}")


@dataclass
class AdmmState:
    """Warm-startable state of one mode's ADMM loop.

    ``y`` and ``u`` are the auxiliary and scaled dual iterates as the real
    ``(I_n, M*R)`` mode-n factor rows the loop runs on; ``u`` is rescaled
    whenever the penalty ``rho`` adapts.  Scaled ADMM restarts from these
    and ``rho`` alone.  ``iterations`` accumulates over every warm-started
    solve of the mode; ``primal`` and ``dual`` are the relative residuals
    of the last step run (``inf`` before any).
    """

    y: np.ndarray
    u: np.ndarray
    rho: float
    iterations: int = 0
    primal: float = np.inf
    dual: float = np.inf


@dataclass
class SolveReport:
    """Per-sweep diagnostics of a fit.

    ``objectives`` etc. carry one entry per completed outer sweep;
    ``mode_objectives`` is the finer trace with one entry per mode solve.
    ``relative_residuals`` is the sweep's ``||W x - s|| / ||s||``, over the
    observed entries for a masked fit, and 0 for an all-zero signal, which
    the first visit's zero factors fit exactly.  ``inner_iters`` sums a
    sweep's inner work over its mode visits: 1 per ridge solve, else the
    ADMM or CG iterations run, a cold redo's included.  ``warnings``
    holds one budget warning per ADMM or CG visit that missed its forced
    tolerance (see :class:`SolverConfig`), with its final residuals
    against the configured tolerances, for an unmasked l2 fit, any rise
    of the objective, and one warning when the fit of a nonzero signal
    ends at all-zero factors.  ``extrapolations`` holds, for every sweep
    after the first, the ``(beta, accepted)`` pair of the step that sweep
    started with.
    """

    objectives: list = field(default_factory=list)
    data_terms: list = field(default_factory=list)
    reg_terms: list = field(default_factory=list)
    relative_residuals: list = field(default_factory=list)
    mode_objectives: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    sweeps: int = 0
    converged: bool = False
    seconds: float = 0.0
    warnings: list = field(default_factory=list)
    extrapolations: list = field(default_factory=list)


def _rhs(op, signal):
    """``W^H s`` of a real ``(C, *shape)`` signal stack through the visit's
    mode-n taps, as ``(I_n, M*R)`` factor rows."""
    if np.shape(signal) != (op.num_channels,) + op.signal_shape:
        raise ValueError(f"signal stack of shape {np.shape(signal)}, "
                         f"expected {(op.num_channels,) + op.signal_shape}")
    return op.adjoint(stack_to_rows(signal, op.mode))


def _norm(v):
    """``np.linalg.norm`` of an array, bit for bit, without its checks."""
    v = v.ravel(order="K")
    return np.sqrt(v.dot(v))


def _shifted(gram, shift):
    """A Gram stack `gram` plus ``shift I``, added to its diagonals in
    place."""
    gram.reshape(len(gram), -1)[:, ::gram.shape[1] + 1] += shift
    return gram


# the job queue of the thread that decomposes the upper half of each l1
# visit's Gram stack, by process id: made on the first split in a process
# (a forked child inherits its parent's queue but not the thread)
_queues = {}
# a split pays only on a free core: the next _HOLD visits decompose inline
# after a split that brings the running mean of the splits' CPU time over
# their wall time (weight 1/4 on the newest) under _OVERLAP
_OVERLAP, _HOLD = 1.4, 8
_overlap, _inline = 2.0, 0  # the running mean; the visits left inline


def _serve(jobs):
    """The worker's loop: wait on `jobs`, and decompose the blocks of each
    job whose claim the worker takes before its caller does, handing the
    caller the result or the exception, and the CPU time taken."""
    while True:
        blocks, claim, out = jobs.get()
        if not claim.acquire(blocking=False):
            continue  # the caller took it back
        cpu = time.thread_time()
        try:
            out.append(np.linalg.eigh(blocks))
        except BaseException as exc:  # the caller raises it
            out.append(exc)
        out.append(time.thread_time() - cpu)
        claim.release()


def _jobs():
    """This process's job queue, the worker's thread started on the first
    call in the process; of two threads' first calls at once, one starts
    the thread and both get its queue."""
    jobs = _queues.get(os.getpid())
    if jobs is None:
        import queue  # here, not at import: only a split needs it
        mine = queue.SimpleQueue()
        jobs = _queues.setdefault(os.getpid(), mine)  # atomic
        if jobs is mine:
            threading.Thread(target=_serve, args=(jobs,), name="lrdec-eigh",
                             daemon=True).start()
    return jobs


def _eigh(blocks):
    """``np.linalg.eigh`` of a stack of Hermitian blocks, bit for bit, in two
    halves: the calling thread queues the upper blocks for the worker
    thread, decomposes the lower ones, then takes the upper half's claim.
    If the worker holds it, the caller waits for the worker's result; if
    the worker has not started, the caller decomposes the upper half
    itself.  LAPACK factors each block on its own, so the halves, joined in
    order, keep every bit, and an exception from either half is raised as
    it was raised.  A stack of one block is decomposed inline, and so are
    the stacks that the gate holds (see ``_HOLD``); a split that was taken
    back counts with no worker CPU."""
    global _inline, _overlap
    if _inline > 0 or len(blocks) < 2:
        _inline = max(_inline - 1, 0)
        return np.linalg.eigh(blocks)
    cut = (len(blocks) + 1) // 2
    out, claim = [], threading.Lock()
    wall, cpu = time.perf_counter(), time.thread_time()
    _jobs().put((blocks[cut:], claim, out))
    try:
        w, v = np.linalg.eigh(blocks[:cut])
    finally:
        claim.acquire()  # wait out a started upper half, even if this raised
    if not out:  # the worker had not started: take the half back
        out = [np.linalg.eigh(blocks[cut:]), 0.0]
    cpu = time.thread_time() - cpu
    upper, upper_cpu = out
    if isinstance(upper, BaseException):
        raise upper
    wall = time.perf_counter() - wall
    _overlap += ((cpu + upper_cpu) / wall - _overlap) / 4
    if _overlap < _OVERLAP:
        _inline = _HOLD
    return np.concatenate((w, upper[0])), np.concatenate((v, upper[1]))


# the order a Gram block is padded to, and the lowest order padded
_PAD_ORDER, _PAD_FROM = 26, 18


def _gram_eigh(gram):
    """:func:`_eigh` of a Hermitian PSD stack `gram`, its blocks of order
    ``_PAD_FROM`` to ``_PAD_ORDER - 1`` padded to order ``_PAD_ORDER``.

    LAPACK's ``zheevd`` solves the tridiagonal of a block of order at most
    ``SMLSIZ`` (25) with ``zsteqr``, whose QR rotations update a complex
    eigenvector matrix.  From order 26 it calls ``dstedc``, which splits
    the tridiagonal where it decouples and solves each part of order at
    most 25 with ``dsteqr``: the same rotations on a real matrix, the
    faster route from order 18 on.  Each block gains leading diagonal
    entries, decoupled from it, at ``-2`` times the stack's largest
    absolute row sum (``-1`` for an all-zero stack), below every eigenvalue
    by Gershgorin's bound.  The Householder reduction leaves them apart,
    so their eigenpairs sort first and are dropped, the padded rows of the
    block's eigenvectors are exact zeros, and the eigenpairs are the
    unpadded ones to roundoff.  A stack with a non-finite row sum is
    decomposed unpadded, so LAPACK fails on it as on the unpadded stack
    (``LinAlgError``).  Returns views of the padded decomposition.
    """
    order = gram.shape[-1]
    if not _PAD_FROM <= order < _PAD_ORDER:
        return _eigh(gram)
    low = -2.0 * np.abs(gram).sum(axis=-1).max()
    if not np.isfinite(low):
        return _eigh(gram)
    pad = _PAD_ORDER - order
    padded = np.zeros((len(gram), _PAD_ORDER, _PAD_ORDER), dtype=complex)
    padded[:, pad:, pad:] = gram
    del gram  # a caller's temporary is freed before the decomposition
    lead = np.arange(pad)
    padded[:, lead, lead] = low or -1.0
    w, v = _eigh(padded)
    return w[:, pad:], v[:, pad:, pad:]


def solve_mode_l2(op, signal, alpha):
    """Ridge mode solve ``(W^H W + alpha I) x = W^H s``, the l2 fit's.

    One LU of the half Gram stack ``G + alpha I`` solves the half-spectrum
    right-hand side rows; a real inverse transform along mode ``n`` gives
    the factors.

    Parameters
    ----------
    op : SpectralOperator
    signal : ndarray
        The real ``(C, *shape)`` signal stack.
    alpha : float
        Non-negative ridge weight.  At 0 the blocks may be singular, and
        the solve raises ``numpy.linalg.LinAlgError``.

    Returns
    -------
    ndarray
        The real factor stack ``(M, I_n, R)``.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    blocks = _shifted(op.gram_blocks(), alpha)
    rows = np.linalg.solve(blocks, rdft_factor(_rhs(op, signal))[..., None])
    return rows_to_factors(irdft_factor(rows[..., 0], op.mode_length),
                           op.num_filters)


def solve_mode_admm(op, signal, cfg, state=None):
    """ADMM solve of one mode's l1-penalized subproblem.

    Alternates the frequency-domain quadratic step with spatial shrinkage
    and a scaled dual update; the auxiliary (sparse) stack is returned as
    the solution.  Residual-balancing adaptation of the penalty is applied
    when ``cfg.rho_adaptive``.  The loop, and `state`, keep the iterates as
    the ``(I_n, M*R)`` mode-n factor rows of the taps and the masked CG.
    Each step is two half-spectrum transforms, two batched products in the
    eigenbasis of the visit's Gram blocks (:func:`_gram_eigh`) and a shrink.

    Parameters
    ----------
    op : SpectralOperator
    signal : ndarray
        The real ``(C, *shape)`` signal stack.
    cfg : SolverConfig
        Uses ``lam``, ``rho_init``, ``rho_adaptive``, ``admm_iters``,
        ``tol_primal`` and ``tol_dual``.
    state : AdmmState, optional
        Warm start; when omitted the loop starts from zero rows at
        ``cfg.rho_init``.

    Returns
    -------
    (ndarray, AdmmState)
        The sparse factor stack ``(M, I_n, R)`` and the updated state.
    """
    if state is None:
        zero = np.zeros((op.mode_length, op.num_filters * op.rank))
        state = AdmmState(y=zero, u=zero, rho=cfg.rho_init)
    length = op.mode_length
    # one eigendecomposition G = V diag(w) V^H serves every rho:
    # (G + rho I)^-1 = V diag(1 / (w + rho)) V^H; the blocks are PSD by
    # construction, so a negative w is roundoff
    w, v = _gram_eigh(op.gram_blocks())
    w, vh = np.maximum(w, 0.0)[..., None], v.conj().swapaxes(1, 2)
    proj = vh @ rdft_factor(_rhs(op, signal))[..., None]

    def steps(rho):  # the step's scales, made again only when rho moves
        inv = 1.0 / (w + rho)
        return proj * inv, rho * inv

    y, u, rho = state.y, state.u, state.rho
    base, shift = steps(rho)
    for k in range(cfg.admm_iters):
        zhat = rdft_factor(y - u)[..., None]
        x = irdft_factor((v @ (base + shift * (vh @ zhat)))[..., 0], length)
        y_prev, y, gamma = y, x + u, cfg.lam / rho
        y -= y.clip(-gamma, gamma)  # shrink x + u toward 0 by gamma
        gap = x - y
        u = u + gap

        primal = _norm(gap)
        dual = rho * _norm(y - y_prev)
        primal_rel = primal / max(_norm(x), _norm(y), _TINY)
        dual_rel = dual / max(rho * _norm(u), _TINY)
        if primal_rel <= cfg.tol_primal and dual_rel <= cfg.tol_dual:
            break
        if cfg.rho_adaptive and max(primal, dual) > 10.0 * min(primal, dual):
            # balance the unnormalized residuals; the scaled dual shrinks
            # inversely with rho
            scale = 2.0 if primal > dual else 0.5
            rho, u = rho * scale, u / scale
            base, shift = steps(rho)

    state.y, state.u, state.rho = y, u, rho
    state.primal, state.dual = primal_rel, dual_rel
    state.iterations += k + 1
    return rows_to_factors(y, op.num_filters).copy(), state


def data_term_gradient(op, shat_vec, x_factor):
    """Gradient ``Re(F^H W^H (W F x - shat))`` of the data term
    ``0.5 ||W F x - shat||^2`` with respect to the real factor stack ``x``
    of shape ``(M, I_n, R)``, ``F`` the unitary DFT along mode ``n``, for
    any spectral signal vector ``shat_vec``, a real signal's or not: the
    operator's vector pair :meth:`~SpectralOperator.apply` and
    :meth:`~SpectralOperator.apply_adjoint` around the residual."""
    xhat = dft_factor(np.asarray(x_factor, dtype=float), axis=1)
    ghat = op.apply_adjoint(op.apply(factor_to_vec(xhat)) - shat_vec)
    return np.fft.ifft(vec_to_factor(ghat, *xhat.shape), axis=1,
                       norm="ortho").real


def _as_channel_stack(signal, num_channels):
    """Split a real signal into (C, *spatial) float form; channels live on
    the last axis when the dictionary is multichannel."""
    signal = _as_real(signal, "signal")
    if num_channels == 1:
        return signal[None], signal.shape
    if signal.ndim < 2 or signal.shape[-1] != num_channels:
        raise ValueError(f"multichannel signal must end with a channel axis "
                         f"of length {num_channels}, got shape {signal.shape}")
    return np.moveaxis(signal, -1, 0), signal.shape[:-1]


def _reg_sum(f, cfg):
    """One mode's unweighted share of the regularizer."""
    return np.sum(np.abs(f)) if cfg.reg == "l1" else np.sum(f * f)


# how far the forcing term may loosen each solver's inner tolerances, and
# the residual, relative to its warm start's, at which a loosened CG visit
# also stops
_CG_CAP = 100.0
_ADMM_CAP = 30.0
_CG_FLOOR = 1e-3
# the extrapolation's step beta: its start, its growth on an accepted step
# (at most to 1) and its shrink on a rejected one
_BETA_START = 0.5
_BETA_GROW = 1.1
_BETA_SHRINK = 1.5
# the start: the deconvolution's floor relative to the bank's peak power,
# and the share of the seeded random start mixed in
_START_EPS = 1e-3
_START_MIX = 0.3


def _forced(tol, cap, change):
    """An inner tolerance `tol` forced by the last sweep's relative
    objective `change`, at most `cap` times looser:
    ``max(tol, min(cap tol, 1e-3 change))``."""
    return max(tol, min(cap * tol, 1e-3 * change))


def _mode_major(stack, modes):
    """One mode-major copy of a ``(C, *shape)`` stack per mode ``n``, as a
    ``(C, *shape)`` view whose mode-n :func:`stack_to_rows` is a view too."""
    return [np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 1 + n, 0)),
                        0, 1 + n) for n in modes]


class _Fit:
    """One fit, from its checked signal to its activations.

    Construction checks the signal (zeroed where a masked fit's `mask` is
    False), makes the start (:meth:`start`) and the mode-major signal and
    mask copies (:func:`_mode_major`).  :meth:`visit` is the one place
    that branches on the fit's kind.  The solvers and
    :class:`SpectralOperator` are looked up in the module at each call,
    so that rebinding those names reaches the fit.
    """

    def __init__(self, signal, dictionary, cfg, mask=None):
        if mask is not None:  # zero where unobserved: no masking needed
            signal = np.where(mask, signal, 0.0)
        s_stack, shape = _as_channel_stack(signal, dictionary.num_channels)
        if not np.all(np.isfinite(s_stack)):
            raise ValueError("signal contains non-finite values")
        dictionary.check_signal_shape(shape)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(s_stack))
        if not np.isfinite(norm * norm):
            # the start, the objective and the residuals all square it
            raise ValueError(f"signal too large: its squared norm overflows "
                             f"above {np.finfo(float).max:.3g}; rescale the "
                             f"signal")
        if norm * norm < np.finfo(float).tiny and s_stack.any():
            # below it the objective's and residuals' sums of squares lose bits
            raise ValueError(f"signal too small: its squared norm "
                             f"{norm * norm:.3g} underflows below "
                             f"{np.finfo(float).tiny:.3g}; rescale the signal")
        self.dictionary, self.cfg, self.shape, self.norm = (dictionary, cfg,
                                                            shape, norm)
        self.factors = self.start(s_stack)
        self.modes = range(len(shape))
        self.s_stacks = _mode_major(s_stack, self.modes)
        self.masks = None if mask is None else _mode_major(_as_channel_stack(
            mask.astype(float), dictionary.num_channels)[0], self.modes)
        self.reg_weight = cfg.lam if cfg.reg == "l1" else 0.5 * cfg.alpha
        # the inner tolerances the forcing term loosens, and by at most how
        # much; an l2 fit forces nothing
        self.forced = (("cg_tol",), _CG_CAP) if mask is not None else (
            ("tol_primal", "tol_dual"), _ADMM_CAP) if cfg.reg == "l1" else (
            (), None)
        # each l1 mode warm-starts from its own AdmmState, not its factors
        self.states = [None] * len(shape)
        # the factors at the last sweep's end; before the first, the start
        self.beta, self.ends = _BETA_START, list(self.factors)
        self.report = SolveReport()

    def start(self, s_stack):
        """The start's factors (see the module docstring): mode 0's are the
        seeded random draws ``u`` times ``scale``, since the first visit
        solves mode 0 from the others; mode ``n > 0``'s are
        ``scale (sqrt(I_n / 12) q + _START_MIX u)`` with ``q`` the ``R``
        leading eigenvectors of the mode-n unfolding Grams of the
        matched-filter deconvolution ``K_m`` of the signal, so ``q``'s
        columns have the expected norm of ``u``'s.  The activations are
        made one at a time.  An l1 fit, a 1-D fit, or one of an all-zero
        signal or bank, keeps the random start."""
        dictionary, shape, rank = self.dictionary, self.shape, self.cfg.rank
        m_count, axes = dictionary.num_filters, tuple(range(-len(shape), 0))
        rng = np.random.default_rng(self.cfg.seed)
        draws = [rng.uniform(-0.5, 0.5, size=(m_count, s, rank))
                 for s in shape]
        scale = (self.norm / (m_count * rank)) ** (1.0 / len(shape))
        factors = [u * scale for u in draws]
        if self.cfg.reg == "l1" or len(shape) == 1:
            return factors
        top = np.max(np.abs(dictionary.filters))
        if not (self.norm and top):
            return factors
        shat = np.fft.rfftn(s_stack, axes=axes)
        dhat = np.fft.rfftn(dictionary.filters / top, s=shape, axes=axes)
        parts = dhat.view(float).reshape(-1, 2 * shat[0].size)  # re, im, ...
        power = np.einsum("ij,ij->j", parts, parts)
        power = power[0::2] + power[1::2]
        power += _START_EPS * power.max()
        # S / (norm power) and conj(D), in place: on the unit-scaled signal
        # and bank no power below overflows
        shat /= (self.norm * power).reshape(shat.shape[1:])
        np.conjugate(dhat, out=dhat)
        grams = [np.empty((m_count, s, s)) for s in shape[1:]]
        for m in range(m_count):  # one activation at a time
            k = np.fft.irfftn((dhat[m] * shat).sum(axis=0), s=shape,
                              axes=axes)
            for n, g in enumerate(grams, 1):
                rows = np.moveaxis(k, n, 0).reshape(shape[n], -1)
                g[m] = rows @ rows.T
        for n, g in enumerate(grams, 1):
            # the R leading eigenvectors; eigh sorts the eigenvalues upward
            q = np.linalg.eigh(g)[1][..., :-rank - 1:-1]
            lead = np.zeros_like(draws[n])
            lead[..., :q.shape[-1]] = q  # I_n < R leaves R - I_n zero
            factors[n] = scale * (np.sqrt(shape[n] / 12.0) * lead
                                  + _START_MIX * draws[n])
        return factors

    def rebalance(self):
        """Scale every component's columns to the geometric mean of their
        norms across the modes and return the drop of the ridge term; the
        product of a component's scales is 1, so the data term stays.  A
        component with a zero column is left as it was."""
        norms = np.sqrt([np.sum(f * f, axis=1) for f in self.factors])
        live = np.all(norms > 0, axis=0)
        # logs relative to mode 0's norm: no log grows with the scale
        logs = np.log(np.divide(norms, norms[0], out=np.ones_like(norms),
                                where=live))
        mean = logs.mean(axis=0)
        self.factors[:] = [f * g[:, None] for f, g in
                           zip(self.factors, np.exp(mean - logs))]
        drop = np.sum(norms * norms, axis=0) - len(norms) * (
            norms[0] * np.exp(mean)) ** 2
        return self.reg_weight * float(np.sum(drop, where=live))

    def score(self, op, n):
        """The objective on mode n's operator `op` as ``(data, reg, data +
        reg)``, ``data`` ``0.5 ||P W x - s||^2``, ``P`` a masked fit's mask."""
        r = op.forward(factors_to_rows(self.factors[n]))
        if self.masks:
            r *= stack_to_rows(self.masks[n], n)
        r -= stack_to_rows(self.s_stacks[n], n)
        r = r.ravel()
        data = 0.5 * float(r @ r)
        reg = self.reg_weight * float(sum(_reg_sum(f, self.cfg)
                                          for f in self.factors))
        return data, reg, data + reg

    def visit(self, op, sweep, n, tols, obj):
        """Mode n's solve on `op` at the inner tolerances `tols` by the
        fit's solver, from `obj`, the objective before it: returns the
        inner work run and the scores.  Each branch owns its solver's
        budget warning, rise rule and failure message."""
        cfg, warnings = self.cfg, self.report.warnings
        s, where = self.s_stacks[n], f"sweep {sweep} mode {n}"
        ceiling = obj + 1e-9 * abs(obj)
        if self.masks:
            # the floor only on a loosened sweep: a converged fit's visits
            # meet cg_tol
            floor = _CG_FLOOR if tols.cg_tol > cfg.cg_tol else 0.0
            try:
                self.factors[n], iters, residual = _solve_mode_masked_cg(
                    op, self.masks[n], s, cfg.alpha, self.factors[n], tols,
                    floor)
            except np.linalg.LinAlgError:  # G + (alpha / p) I is singular
                raise ValueError(
                    f"ridge blocks are singular at {where} with "
                    f"alpha={cfg.alpha:g}: a larger alpha is needed"
                ) from None
            if residual is not None:
                # a nan residual must not read as met
                cmp = "<=" if residual <= cfg.cg_tol else ">"
                warnings.append(
                    f"cg budget exhausted at {where}: {iters} iterations, "
                    f"relative residual {residual:.3e} {cmp} cg_tol "
                    f"{cfg.cg_tol:.1e}")
            return iters, self.score(op, n)
        if cfg.reg == "l2":
            try:
                self.factors[n] = solve_mode_l2(op, s, cfg.alpha)
            except np.linalg.LinAlgError:  # G + alpha I rounds to singular
                need = "a positive" if cfg.alpha == 0 else "a larger"
                raise ValueError(
                    f"ridge blocks are singular at {where} with "
                    f"alpha={cfg.alpha:g}: {need} alpha is needed") from None
            scores = self.score(op, n)
            if scores[2] > ceiling:
                warnings.append(f"l2 objective increased at mode {n}: "
                                f"{obj:.6e} -> {scores[2]:.6e}")
            return 1, scores
        warm = self.states[n]
        done = warm.iterations if warm else 0
        try:
            self.factors[n], state = solve_mode_admm(op, s, tols, warm)
            iters, scores = state.iterations - done, self.score(op, n)
            if warm and scores[2] > ceiling:
                # a warm ADMM state carried onto singular blocks can leave
                # a stale null-space part that grows; redo the visit cold
                self.factors[n], state = solve_mode_admm(op, s, tols, None)
                iters, scores = iters + state.iterations, self.score(op, n)
        except np.linalg.LinAlgError:  # eigh of blocks overflowed to inf/nan
            raise ValueError(f"the ADMM's eigendecomposition failed at "
                             f"{where}: rescale the signal") from None
        self.states[n] = state
        if state.primal > tols.tol_primal or state.dual > tols.tol_dual:
            warnings.append(
                f"admm budget exhausted at {where}: {iters} iterations, "
                f"relative primal {state.primal:.3e} (tol_primal "
                f"{cfg.tol_primal:.1e}), dual {state.dual:.3e} (tol_dual "
                f"{cfg.tol_dual:.1e})")
        return iters, scores

    def extrapolate(self, obj):
        """One extrapolation step with restart (see the module docstring)
        from `obj`, the last sweep's objective, which an l2 or masked fit
        first lowers by its rebalance's drop; the ADMM states stay as
        they were.  Returns mode 0's operator on the sweep's start and the
        objective there."""
        if self.cfg.reg == "l2":  # an l2 or masked fit
            obj -= self.rebalance()
        # the solves return new arrays, so the lists hold x_{k-1} and x_k
        # as they were
        last, self.ends = self.ends, list(self.factors)
        beta = self.beta
        self.factors[:] = [x + beta * (x - y) for x, y in zip(self.ends, last)]
        op = SpectralOperator(self.dictionary, self.shape, self.factors, 0)
        trial = self.score(op, 0)[2]
        accepted = trial <= obj
        self.report.extrapolations.append((beta, accepted))
        if accepted:
            self.beta = min(1.0, _BETA_GROW * beta)
            return op, trial
        # restart from x_k and its first operator
        self.factors[:] = self.ends
        self.beta = beta / _BETA_SHRINK
        return SpectralOperator(self.dictionary, self.shape, self.factors,
                                0), obj

    def sweep(self):
        """Run the sweep, updating the factors in place, and return the
        report.  A visit whose objective is not finite raises a
        ``ValueError`` naming its sweep and mode."""
        cfg, report, (names, cap) = self.cfg, self.report, self.forced
        # the forcing term (see the module docstring): the first sweep runs
        # at the cap
        change = np.inf
        for sweep in range(cfg.outer_iters):
            # an l2 fit skips the config's copy and checks
            tols = replace(cfg, **{k: _forced(getattr(cfg, k), cap, change)
                                   for k in names}) if names else cfg
            if sweep:
                op, obj = self.extrapolate(obj)
            else:  # the first operator scores the start
                op = SpectralOperator(self.dictionary, self.shape,
                                      self.factors, 0)
                prev_obj = obj = self.score(op, 0)[2]
            inner = 0
            for n in self.modes:
                if n:
                    op = SpectralOperator(self.dictionary, self.shape,
                                          self.factors, n)
                iters, (data, reg, obj) = self.visit(op, sweep, n, tols, obj)
                del op  # free its taps and Gram blocks before the next visit's
                if not np.isfinite(obj):
                    raise ValueError(f"objective became non-finite at sweep "
                                     f"{sweep} mode {n}: {obj}")
                inner += iters
                report.mode_objectives.append(obj)
            report.objectives.append(obj)
            report.data_terms.append(data)
            report.reg_terms.append(reg)
            report.relative_residuals.append(
                float(np.sqrt(2.0 * data)) / self.norm if self.norm else 0.0)
            report.inner_iters.append(inner)
            report.sweeps += 1
            # only a sweep solved to the configured tolerances ends the fit
            if tols == cfg and abs(prev_obj - obj) <= cfg.tol_outer * abs(
                    prev_obj):
                report.converged = True
                break
            change = abs(prev_obj - obj) / abs(prev_obj) if prev_obj else 0.0
            prev_obj = obj
        if self.norm and not any(f.any() for f in self.factors):
            report.warnings.append(
                "the fit of a nonzero signal ended at all-zero factors: try a "
                "smaller regularizer weight or rescale the signal")
        return report

    def activations(self):
        """The fitted activations, one :class:`KruskalTensor` per filter."""
        return [KruskalTensor([f[m].copy() for f in self.factors])
                for m in range(self.dictionary.num_filters)]


def lrd_fit(signal, dictionary, cfg):
    """Decompose `signal` into filters convolved with rank-R activations.

    Sweeps the tensor modes in ascending order; each visit solves that
    mode's subproblem exactly (l2) or by warm-started ADMM (l1).  Stops
    when the relative objective change over a sweep drops below
    ``cfg.tol_outer`` or after ``cfg.outer_iters`` sweeps.

    Parameters
    ----------
    signal : ndarray
        Real tensor; with a multichannel dictionary the trailing axis must
        be the channel axis.
    dictionary : Dictionary
    cfg : SolverConfig
        An l2 fit starts from the signal's deconvolution, mixed with
        seeded random factors drawn from ``cfg.seed``; an l1 fit starts
        from those random factors alone (see the module docstring).

    Returns
    -------
    (list of KruskalTensor, SolveReport)
    """
    t0 = time.perf_counter()
    fit = _Fit(signal, dictionary, cfg)
    report = fit.sweep()
    report.seconds = time.perf_counter() - t0
    return fit.activations(), report


def _masked_normal(op, mask, alpha, x):
    """Masked normal map ``(W^H P W + alpha I) x`` of ``(I_n, M*R)`` factor
    rows, with ``P`` the spatial `mask` as :func:`stack_to_rows` output
    rows: the CG matvec."""
    y = op.forward(x)
    y *= mask
    y = op.adjoint(y)
    y += alpha * x
    return y


def _pcg(matvec, precondition, b, x0, rtol, maxiter, floor=0.0):
    """Preconditioned conjugate gradients on real arrays.

    Solves ``A x = b`` for an SPD ``A`` applied by `matvec`, with
    `precondition` applying an SPD approximation of ``A^-1``.  Stops when
    the running residual is below ``max(rtol ||b||, floor ||r_0||)``, with
    ``r_0 = b - A x0``, tested before each iteration; the second term is
    scipy ``cg``'s ``atol``.  Every step repeats the arithmetic of scipy's
    ``cg``, so the two return the same bits (scipy skips ``A x0`` for a
    zero `x0`, and ``A 0`` is exactly 0).  Returns the solution (a copy of
    ``b`` when it is zero), the iterations run and whether the tolerance
    was met.
    """
    x = np.array(x0, dtype=float)
    bnorm = _norm(b)
    if bnorm == 0:
        return b.copy(), 0, True
    r = b - matvec(x)
    atol = max(rtol * bnorm, floor * _norm(r)) if floor else rtol * bnorm
    for iteration in range(maxiter):
        if _norm(r) < atol:
            return x, iteration, True
        z = precondition(r)
        rho = np.vdot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, False


def _solve_mode_masked_cg(op, mask_stack, s_obs, alpha, x0, cfg,
                          floor=0.0):
    """Preconditioned CG solve of the masked normal equations for one mode.

    The preconditioner replaces the mask by ``p I``, with ``p`` the observed
    fraction, and applies ``(p W^H W + alpha I)^-1`` exactly per mode-n
    frequency; with nothing masked it is the inverse of the system.
    `s_obs` is zero where unobserved.  The CG stops at ``cfg.cg_tol`` and
    `floor` as :func:`_pcg` does.  Returns the factor stack, the CG
    iterations run and, when the budget ran out, the true relative
    residual of the normal equations (CG stops on its running residual,
    updated by recurrence, which can drift from the true one); ``None``
    when the tolerance was met.  The CG runs on ``W^H s`` and `x0` scaled
    by ``2**-e``, with ``e`` the binary exponent of ``max |W^H s|``, so no
    squared norm overflows; a power of two scales exactly, so at an
    ordinary scale every step keeps its bits."""
    length = op.mode_length
    p = float(mask_stack.mean())
    # p G + alpha I = p (G + (alpha / p) I), on the half spectrum
    inv = np.linalg.inv(_shifted(op.gram_blocks(), alpha / p)) / p
    mask = stack_to_rows(mask_stack, op.mode)

    def matvec(v):
        return _masked_normal(op, mask, alpha, v)

    def precondition(v):
        vhat = rdft_factor(v)[..., None]
        return irdft_factor((inv @ vhat)[..., 0], length)

    rhs = _rhs(op, s_obs)
    e = int(np.frexp(np.max(np.abs(rhs)))[1])
    rhs = np.ldexp(rhs, -e)
    x, iterations, converged = _pcg(matvec, precondition, rhs,
                                    np.ldexp(factors_to_rows(x0), -e),
                                    cfg.cg_tol, cfg.cg_max_iters, floor)
    residual = None
    if not converged:
        residual = float(_norm(rhs - matvec(x)) / _norm(rhs))
    x = rows_to_factors(np.ldexp(x, e), op.num_filters)
    return x, iterations, residual


def lrd_fit_masked(signal, mask, dictionary, cfg):
    """Fit the model to the observed entries only and complete the signal.

    The spatial mask couples the mode-n frequencies, so each mode solve runs
    preconditioned conjugate gradients on the masked normal equations,
    applied through the visit's mode-n convolution taps, instead of the
    per-frequency closed form.  The completed signal is
    :func:`forward_model` of the final activations.  Requires
    ``cfg.reg == "l2"``.

    Parameters
    ----------
    signal : ndarray
        Observed signal; entries where `mask` is False are ignored.
    mask : ndarray of bool
        True marks observed entries; same shape as `signal`.
    dictionary : Dictionary
    cfg : SolverConfig

    Returns
    -------
    (list of KruskalTensor, ndarray, SolveReport)
        Fitted activations, the completed signal (the model output over
        the full domain), and diagnostics.  CG budget exhaustion is
        recorded in ``report.warnings``, not raised.
    """
    t0 = time.perf_counter()
    if cfg.reg != "l2":
        raise ValueError("masked completion requires the l2 regularizer")
    if not cfg.alpha > 0:
        raise ValueError("masked completion requires alpha > 0")
    mask, signal = np.asarray(mask), np.asarray(signal)
    if mask.dtype != bool:
        raise ValueError(f"mask must be boolean, got dtype {mask.dtype}")
    if mask.shape != signal.shape:
        raise ValueError(f"mask shape {mask.shape} != signal shape "
                         f"{signal.shape}")
    if not mask.any():
        raise ValueError("mask has no observed entries")

    fit = _Fit(signal, dictionary, cfg, mask)
    report = fit.sweep()
    activations = fit.activations()
    completed = forward_model(dictionary, activations)
    report.seconds = time.perf_counter() - t0
    return activations, completed, report
