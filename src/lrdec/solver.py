"""Per-mode solvers and the alternating sweep that drives them.

The fit decomposes a signal as ``sum_m d_m (*) K_m`` by cycling over the
tensor modes and, for each mode, minimizing over that mode's stacked
factors while the others stay fixed.  One sweep loop runs every fit: a
mode visit builds the mode's :class:`SpectralOperator`, calls one of three
mode solvers on it and scores the objective on that same operator.  The
solvers, with the inner work a visit adds to ``SolveReport.inner_iters``:

* a closed-form ridge solve (squared-norm penalty on the factors): 1;
* an ADMM loop for the l1 penalty, whose quadratic step is the ridge
  block solve with a proximal term ``rho``; one eigendecomposition of the
  visit's half Gram stack serves every ``rho`` the adaptive loop visits,
  so each step, on the ``(I_n, M*R)`` factor rows, is two real FFTs, two
  batched eigenbasis products and a shrink: its ADMM iterations;
* a conjugate-gradient solve for masked signals, where the spatial mask
  breaks the per-frequency decoupling, preconditioned by the unmasked
  per-frequency blocks with the mask taken as its observed fraction: its
  CG iterations.

Every fit applies the visit's map in the signal domain, on its mode-n
convolution taps (``SpectralOperator.tap_maps``), with no FFT: the
right-hand side ``W^H s`` is one real product with the taps and ``L_n``
shifted row sums (the MTTKRP of CP-ALS); the objective
``0.5 ||P W x - s||^2``, with ``P`` the mask or 1, is one gather and one
real product; the CG matvec is both.  Known limit: that work grows with
the mode-n filter support ``L_n``.  For the masked matvec on a 64x64 image
(M=8, R=3) it matched the FFT-based map it replaced near ``L_n = 20`` taps
and runs 3x slower at ``L_n = I_n``; the l2 and l1 fits pay it too.

The ridge and ADMM solves and the CG preconditioner run in the unitary DFT
domain, where the normal equations split into one small Hermitian system
per mode-n frequency.  Signal and factors are real, so these solves carry
only frequencies ``0..I_n//2`` along mode ``n``: real-input transforms in
and out (the inverse stays real however ill-conditioned the blocks are),
half-spectrum Gram blocks in between.  Each mode's lag-domain filter
correlations are made once per fit; no fit makes filter spectra.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .convmodel import (SpectralOperator, factor_to_vec, filter_correlations,
                        rows_to_stack, stack_to_rows, vec_to_factor,
                        vec_to_signal)
from .tensor import KruskalTensor
from .transform import dft_factor, idft_factor, irdft_factor, rdft_factor

__all__ = [
    "SolverConfig",
    "AdmmState",
    "SolveReport",
    "soft_threshold",
    "solve_mode_quadratic",
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
    (closed form).  ``num_filters`` is optional and only cross-checked
    against the dictionary when set.
    """

    reg: str = "l2"
    lam: float = 0.1
    alpha: float = 1e-4
    rank: int = 3
    num_filters: int | None = None
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
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not (np.isfinite(self.rho_init) and self.rho_init > 0):
            raise ValueError(f"rho_init must be finite and positive, got "
                             f"{self.rho_init}")
        for name in ("tol_primal", "tol_dual", "tol_outer", "cg_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.admm_iters < 1 or self.outer_iters < 1 or self.cg_max_iters < 1:
            raise ValueError("iteration budgets must be >= 1")


@dataclass
class AdmmState:
    """Warm-startable state of one mode's ADMM loop.

    ``x``, ``y`` and ``u`` are the primary, auxiliary and scaled dual
    stacks, all real of shape ``(M, I_n, R)``; ``u`` is rescaled whenever
    the penalty ``rho`` adapts.  ``iterations`` and the residual lists
    accumulate over every warm-started solve of the mode.
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    rho: float
    iterations: int = 0
    primal_residuals: list = field(default_factory=list)
    dual_residuals: list = field(default_factory=list)

    @classmethod
    def cold(cls, x0, rho):
        x0 = np.asarray(x0, dtype=float)
        return cls(x=x0.copy(), y=x0.copy(), u=np.zeros_like(x0), rho=rho)


@dataclass
class SolveReport:
    """Per-sweep diagnostics of a fit.

    ``objectives`` etc. carry one entry per completed outer sweep;
    ``mode_objectives`` is the finer trace with one entry per mode solve.
    ``relative_residuals`` is the sweep's ``||W x - s|| / ||s||``, over the
    observed entries for a masked fit, and 0 for an all-zero signal, which
    the first visit's zero factors fit exactly.  ``inner_iters`` sums a
    sweep's inner work over its mode visits: 1 per ridge solve, else the
    ADMM or CG iterations run.
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


def soft_threshold(v, gamma):
    """Elementwise shrinkage ``sign(v) * max(|v| - gamma, 0)``, computed as
    ``v - clip(v, -gamma, gamma)``.

    Proximal map of ``gamma * ||.||_1``; `gamma` must be non-negative.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    v = np.asarray(v)
    return v - v.clip(-gamma, gamma)


def _per_frequency(apply_blocks, xhat):
    """Apply `apply_blocks` to a spectral stack ``(M, rows, R)`` laid out
    as one ``(M*R, 1)`` column per frequency."""
    m_count, rows, rank = xhat.shape
    cols = xhat.transpose(1, 0, 2).reshape(rows, m_count * rank, 1)
    return apply_blocks(cols).reshape(rows, m_count, rank).transpose(1, 0, 2)


def _masked_apply(op, mask_stack, x_factor):
    """Spatial masked forward map of one mode's real factor stack."""
    rows = op.tap_maps()[0](x_factor.transpose(1, 0, 2))
    return rows_to_stack(rows, op.signal_shape, op.mode) * mask_stack


def _masked_adjoint(op, mask_stack, y_stack):
    """Adjoint of :func:`_masked_apply` on real signal stacks."""
    rows = op.tap_maps()[1](stack_to_rows(y_stack * mask_stack, op.mode))
    return rows.reshape(op.mode_length, op.num_filters, -1).transpose(1, 0, 2)


def _signal_arrays(op, shat_vec):
    """A spectral signal vector as ``(C, I_n, Lambda)`` unfolding rows."""
    return vec_to_signal(shat_vec, op.num_channels, op.mode_length, op.lam)


def _half_rhs(op, s):
    """``W^H s`` on the half spectrum, ``(M, I_n//2 + 1, R)``, from a
    spectral signal vector or a real ``(C, *shape)`` signal stack, the
    latter through the visit's mode-n taps."""
    if np.ndim(s) == 1:
        rhs = op.adjoint_arrays(_signal_arrays(op, s))
        return rhs[:, :op.mode_length // 2 + 1]
    if np.shape(s) != (op.num_channels,) + op.signal_shape:
        raise ValueError(f"signal stack of shape {np.shape(s)}, expected "
                         f"{(op.num_channels,) + op.signal_shape}")
    return rdft_factor(_masked_adjoint(op, 1.0, s), axis=1)


def solve_mode_quadratic(op, shat_vec, zhat_vec, rho):
    """Closed-form solve of ``(W^H W + rho I) x = W^H s + rho z``.

    Parameters
    ----------
    op : SpectralOperator
    shat_vec : ndarray
        Spectral signal vector, length ``op.signal_size``.
    zhat_vec : ndarray or None
        Spectral shortcut vector, length ``op.factor_size``; ``None``
        means zero.
    rho : float
        Positive diagonal regularizer.

    Returns
    -------
    ndarray
        Spectral factor vector of length ``op.factor_size``.

    The spectra may be arbitrary complex vectors, so unlike the fits this
    solves every frequency on the full :meth:`SpectralOperator.normal_blocks`.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    rhs = op.adjoint_arrays(_signal_arrays(op, shat_vec))
    if zhat_vec is not None:
        rhs = rhs + rho * vec_to_factor(zhat_vec, op.num_filters,
                                        op.mode_length, op.rank)
    blocks = op.normal_blocks(rho)
    return factor_to_vec(
        _per_frequency(lambda rows: np.linalg.solve(blocks, rows), rhs))


def solve_mode_l2(op, shat_vec, alpha):
    """Ridge mode solve ``(W^H W + alpha I) x = W^H s``."""
    return solve_mode_quadratic(op, shat_vec, None, alpha)


def solve_mode_admm(op, shat_vec, cfg, state=None):
    """ADMM solve of one mode's l1-penalized subproblem.

    Alternates the frequency-domain quadratic step with spatial shrinkage
    and a scaled dual update; the auxiliary (sparse) stack is returned as
    the solution.  Residual-balancing adaptation of the penalty is applied
    when ``cfg.rho_adaptive``.  The loop runs on the ``(I_n, M*R)`` mode-n
    factor rows of the taps and the masked CG; `state` keeps its
    ``(M, I_n, R)`` stacks, converted once per call.

    Parameters
    ----------
    op : SpectralOperator
    shat_vec : ndarray
        Spectral signal vector, or the real ``(C, *shape)`` signal stack.
    cfg : SolverConfig
        Uses ``lam``, ``rho_init``, ``rho_adaptive``, ``admm_iters``,
        ``tol_primal`` and ``tol_dual``.
    state : AdmmState, optional
        Warm start; a cold zero-dual state is created when omitted.

    Returns
    -------
    (ndarray, AdmmState)
        The sparse factor stack ``(M, I_n, R)`` and the updated state.
    """
    dims = (op.num_filters, op.mode_length, op.rank)
    if state is None:
        state = AdmmState.cold(np.zeros(dims), cfg.rho_init)
    length = op.mode_length
    # one eigendecomposition G = V diag(w) V^H serves every rho:
    # (G + rho I)^-1 = V diag(1 / (w + rho)) V^H; the blocks are PSD by
    # construction, so a negative w is roundoff
    w, v = np.linalg.eigh(op.gram_blocks())
    w, vh = np.maximum(w, 0.0)[..., None], v.conj().swapaxes(1, 2)
    rhs = _half_rhs(op, shat_vec).transpose(1, 0, 2).reshape(len(w), -1, 1)
    proj = vh @ rhs

    def steps(rho):  # the step's scales, made again only when rho moves
        inv = 1.0 / (w + rho)
        return proj * inv, rho * inv

    y, u = (s.transpose(1, 0, 2).reshape(length, -1)
            for s in (state.y, state.u))
    rho = state.rho
    base, shift = steps(rho)
    for _ in range(cfg.admm_iters):
        zhat = rdft_factor(y - u)[..., None]
        x = irdft_factor((v @ (base + shift * (vh @ zhat)))[..., 0], length)
        y_prev = y
        y = soft_threshold(x + u, cfg.lam / rho)
        gap = x - y
        u = u + gap

        primal = np.linalg.norm(gap)
        dual = rho * np.linalg.norm(y - y_prev)
        primal_rel = primal / max(np.linalg.norm(x), np.linalg.norm(y), _TINY)
        dual_rel = dual / max(rho * np.linalg.norm(u), _TINY)
        state.iterations += 1
        state.primal_residuals.append(primal_rel)
        state.dual_residuals.append(dual_rel)
        if primal_rel <= cfg.tol_primal and dual_rel <= cfg.tol_dual:
            break
        if cfg.rho_adaptive and max(primal, dual) > 10.0 * min(primal, dual):
            # balance the unnormalized residuals; the scaled dual shrinks
            # inversely with rho
            scale = 2.0 if primal > dual else 0.5
            rho, u = rho * scale, u / scale
            base, shift = steps(rho)

    state.x, state.y, state.u = (s.reshape(length, op.num_filters, -1)
                                 .transpose(1, 0, 2) for s in (x, y, u))
    state.rho = rho
    return state.y.copy(), state


def data_term_gradient(op, shat_vec, x_factor):
    """Gradient of the data term ``0.5 ||W xhat - shat||^2`` with respect
    to the spatial factor stack ``x_factor`` of shape ``(M, I_n, R)``."""
    xhat = dft_factor(np.asarray(x_factor, dtype=float), axis=1)
    resid = op.apply_arrays(xhat) - _signal_arrays(op, shat_vec)
    return idft_factor(op.adjoint_arrays(resid), axis=1)


def _as_channel_stack(signal, num_channels):
    """Split a real signal into (C, *spatial) float form; channels live on
    the last axis when the dictionary is multichannel."""
    signal = np.asarray(signal)
    if np.iscomplexobj(signal):
        raise ValueError(f"signal must be real, got dtype {signal.dtype}")
    signal = signal.astype(float, copy=False)
    if num_channels == 1:
        return signal[None], signal.shape
    if signal.ndim < 2 or signal.shape[-1] != num_channels:
        raise ValueError(f"multichannel signal must end with a channel axis "
                         f"of length {num_channels}, got shape {signal.shape}")
    return np.moveaxis(signal, -1, 0), signal.shape[:-1]


def _reg_term(factors, cfg):
    if cfg.reg == "l1":
        return cfg.lam * float(sum(np.sum(np.abs(f)) for f in factors))
    return 0.5 * cfg.alpha * float(sum(np.sum(f * f) for f in factors))


def _init_factors(shape, m_count, rank, seed, signal_norm):
    rng = np.random.default_rng(seed)
    scale = (signal_norm / (m_count * rank)) ** (1.0 / len(shape))
    return [rng.uniform(-0.5, 0.5, size=(m_count, s, rank)) * scale
            for s in shape]


def _factors_from_init(init, shape, m_count, rank):
    init = list(init)
    if len(init) != m_count:
        raise ValueError(f"init has {len(init)} activations for {m_count} "
                         f"filters")
    stacks = []
    for n, s in enumerate(shape):
        stack = np.empty((m_count, s, rank))
        for m, k in enumerate(init):
            f = k.factors[n] if isinstance(k, KruskalTensor) else np.asarray(k[n])
            if f.shape != (s, rank):
                raise ValueError(f"init activation {m} factor {n} has shape "
                                 f"{f.shape}, expected {(s, rank)}")
            stack[m] = f
        stacks.append(stack)
    return stacks


def _prepare_fit(signal, dictionary, cfg, init):
    if cfg.num_filters is not None and cfg.num_filters != dictionary.num_filters:
        raise ValueError(f"config expects {cfg.num_filters} filters, "
                         f"dictionary has {dictionary.num_filters}")
    s_stack, shape = _as_channel_stack(signal, dictionary.num_channels)
    if not np.all(np.isfinite(s_stack)):
        raise ValueError("signal contains non-finite values")
    dictionary.check_signal_shape(shape)
    m_count = dictionary.num_filters
    if init is None:
        factors = _init_factors(shape, m_count, cfg.rank, cfg.seed,
                                float(np.linalg.norm(s_stack)))
    else:
        factors = _factors_from_init(init, shape, m_count, cfg.rank)
    return s_stack, shape, factors


def _finish(factors):
    m_count = factors[0].shape[0]
    return [KruskalTensor([f[m].copy() for f in factors])
            for m in range(m_count)]


def _sweep(dictionary, shape, factors, cfg, solve_mode, mask_stack, s_obs,
           check_l2):
    """Run the alternating sweep of a fit, updating `factors` in place.

    ``solve_mode(op, x, sweep)`` returns mode ``op.mode``'s new stack, its
    inner iterations and a list of warnings.  Each stack is scored on the
    visit's taps as ``0.5 ||P W x - s_obs||^2``, with ``P`` the mask stack
    (1.0 for an unmasked fit).  `check_l2` flags a rising objective.
    Returns the report and the operator of the last visit."""
    report = SolveReport()
    modes = range(len(shape))
    correlations = [filter_correlations(dictionary, shape, n) for n in modes]
    s_rows = [stack_to_rows(s_obs, n) for n in modes]
    mask_rows = [stack_to_rows(mask_stack, n) if np.ndim(mask_stack) else 1.0
                 for n in modes]
    signal_norm = float(np.linalg.norm(s_obs))

    def data_term(forward, n, x):
        r = (forward(x.transpose(1, 0, 2).reshape(shape[n], -1))
             * mask_rows[n] - s_rows[n])
        return 0.5 * float(np.sum(r * r))

    prev_obj = None
    for sweep in range(cfg.outer_iters):
        inner = 0
        for n in modes:
            op = SpectralOperator(dictionary, shape, factors, n,
                                  correlations=correlations[n])
            forward = op.tap_maps()[0]
            if prev_obj is None:  # score the start on the first operator
                prev_obj = obj = (data_term(forward, n, factors[n])
                                  + _reg_term(factors, cfg))
            factors[n], iters, warnings = solve_mode(op, factors[n], sweep)
            inner += iters
            report.warnings.extend(warnings)
            last_obj = obj
            data = data_term(forward, n, factors[n])
            reg = _reg_term(factors, cfg)
            obj = data + reg
            report.mode_objectives.append(obj)
            if check_l2 and obj > last_obj + 1e-9 * max(1.0, abs(last_obj)):
                report.warnings.append(
                    f"l2 objective increased at mode {n}: "
                    f"{last_obj:.6e} -> {obj:.6e}")
        if not np.isfinite(obj):
            raise ValueError(f"objective became non-finite: {obj}")
        report.objectives.append(obj)
        report.data_terms.append(data)
        report.reg_terms.append(reg)
        report.relative_residuals.append(
            float(np.sqrt(2.0 * data)) / signal_norm if signal_norm else 0.0)
        report.inner_iters.append(inner)
        report.sweeps += 1
        if abs(prev_obj - obj) <= cfg.tol_outer * abs(prev_obj):
            report.converged = True
            break
        prev_obj = obj
    return report, op


def lrd_fit(signal, dictionary, cfg, init=None):
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
    init : sequence of KruskalTensor or factor lists, optional
        Initial activations, one per filter.  Seeded random factors are
        used when omitted.

    Returns
    -------
    (list of KruskalTensor, SolveReport)
    """
    t0 = time.perf_counter()
    s_stack, shape, factors = _prepare_fit(signal, dictionary, cfg, init)

    if cfg.reg == "l2":
        def solve_mode(op, x, sweep):
            # one LU of the half Gram stack per visit
            gram = op.gram_blocks()
            blocks = gram + cfg.alpha * np.eye(gram.shape[1])
            rhs = _half_rhs(op, s_stack)
            try:
                xhat = _per_frequency(
                    lambda rows: np.linalg.solve(blocks, rows), rhs)
            except np.linalg.LinAlgError:
                raise ValueError(
                    f"ridge blocks are singular at sweep {sweep} mode "
                    f"{op.mode} with alpha={cfg.alpha:g}: a positive alpha "
                    f"is needed") from None
            return irdft_factor(xhat, op.mode_length, axis=1), 1, []
    else:
        # each mode warm-starts from its own AdmmState, not from x
        states = [AdmmState.cold(np.zeros_like(f), cfg.rho_init)
                  for f in factors]

        def solve_mode(op, x, sweep):
            done = states[op.mode].iterations
            y, state = solve_mode_admm(op, s_stack, cfg, states[op.mode])
            iters = state.iterations - done
            primal, dual = state.primal_residuals[-1], state.dual_residuals[-1]
            warnings = []
            if primal > cfg.tol_primal or dual > cfg.tol_dual:
                warnings.append(
                    f"admm budget exhausted at sweep {sweep} mode {op.mode}: "
                    f"{iters} iterations, relative primal {primal:.3e} "
                    f"(tol_primal {cfg.tol_primal:.1e}), dual {dual:.3e} "
                    f"(tol_dual {cfg.tol_dual:.1e})")
            return y, iters, warnings

    report, _ = _sweep(dictionary, shape, factors, cfg, solve_mode, 1.0,
                       s_stack, check_l2=cfg.reg == "l2")
    report.seconds = time.perf_counter() - t0
    return _finish(factors), report


def _masked_normal(op, mask_stack, alpha, x):
    """Masked normal map ``(W^H P W + alpha I) x`` of a factor stack, with
    ``P`` the spatial mask."""
    return (_masked_adjoint(op, mask_stack, _masked_apply(op, mask_stack, x))
            + alpha * x)


def _solve_mode_masked_cg(op, mask_stack, s_obs, alpha, x0, cfg,
                          callback=None):
    """Preconditioned CG solve of the masked normal equations for one mode.

    The preconditioner replaces the mask by ``p I``, with ``p`` the observed
    fraction, and applies ``(p W^H W + alpha I)^-1`` exactly per mode-n
    frequency; with nothing masked it is the inverse of the system.
    Returns the factor stack and the scipy convergence flag (0 means the
    relative tolerance was met); `callback` runs after each iteration."""
    length, start = op.mode_length, x0.transpose(1, 0, 2)
    p = float(mask_stack.mean())
    # p G + alpha I = p (G + (alpha / p) I), on the half spectrum
    gram = op.gram_blocks()
    inv = np.linalg.inv(gram + (alpha / p) * np.eye(gram.shape[1])) / p
    forward, adjoint = op.tap_maps()
    mask_rows = stack_to_rows(mask_stack, op.mode)

    def matvec(v):
        x = v.reshape(length, -1)
        return (adjoint(forward(x) * mask_rows) + alpha * x).ravel()

    def precondition(v):
        xhat = rdft_factor(v.reshape(length, -1, 1))
        return irdft_factor(inv @ xhat, length).ravel()

    rhs = adjoint(stack_to_rows(s_obs, op.mode) * mask_rows).ravel()
    shape = (x0.size, x0.size)
    lin = scipy.sparse.linalg.LinearOperator(shape, matvec=matvec,
                                             dtype=float)
    pre = scipy.sparse.linalg.LinearOperator(shape, matvec=precondition,
                                             dtype=float)
    sol, info = scipy.sparse.linalg.cg(lin, rhs, x0=start.ravel(),
                                       rtol=cfg.cg_tol, atol=0.0,
                                       maxiter=cfg.cg_max_iters, M=pre,
                                       callback=callback)
    return sol.reshape(start.shape).transpose(1, 0, 2), info


def lrd_fit_masked(signal, mask, dictionary, cfg, init=None):
    """Fit the model to the observed entries only and complete the signal.

    The spatial mask couples the mode-n frequencies, so each mode solve runs
    preconditioned conjugate gradients on the masked normal equations,
    applied through the visit's mode-n convolution taps, instead of the
    per-frequency closed form.  The completed signal is the last visit's
    taps applied to the final factors.  Requires ``cfg.reg == "l2"``.

    Parameters
    ----------
    signal : ndarray
        Observed signal; entries where `mask` is False are ignored.
    mask : ndarray of bool
        True marks observed entries; same shape as `signal`.
    dictionary : Dictionary
    cfg : SolverConfig
    init : optional initial activations, as in :func:`lrd_fit`.

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

    s_full, shape, factors = _prepare_fit(
        np.where(mask, signal, 0.0), dictionary, cfg, init)
    mask_stack = _as_channel_stack(mask.astype(float),
                                   dictionary.num_channels)[0]
    s_obs = s_full * mask_stack

    def solve_mode(op, x, sweep):
        iters = []
        x, info = _solve_mode_masked_cg(op, mask_stack, s_obs, cfg.alpha, x,
                                        cfg, callback=iters.append)
        warnings = []
        if info != 0:
            # scipy stops on its running residual, which can drift from
            # the true one
            rhs = _masked_adjoint(op, mask_stack, s_obs)
            rel = float(np.linalg.norm(
                rhs - _masked_normal(op, mask_stack, cfg.alpha, x))
                / np.linalg.norm(rhs))
            cmp = ">" if rel > cfg.cg_tol else "<="
            warnings.append(
                f"cg budget exhausted at sweep {sweep} mode {op.mode}: "
                f"{len(iters)} iterations, relative residual {rel:.3e} "
                f"{cmp} cg_tol {cfg.cg_tol:.1e}")
        return x, len(iters), warnings

    report, op = _sweep(dictionary, shape, factors, cfg, solve_mode,
                        mask_stack, s_obs, check_l2=False)

    # unmasked, the last visit's map of its final factors is the model output
    out = _masked_apply(op, 1.0, factors[-1])
    completed = np.ascontiguousarray(
        out[0] if dictionary.num_channels == 1 else np.moveaxis(out, 0, -1))
    report.seconds = time.perf_counter() - t0
    return _finish(factors), completed, report
