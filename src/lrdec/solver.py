"""Per-mode solvers and the alternating sweep that drives them.

The fit decomposes a signal as ``sum_m d_m (*) K_m`` by cycling over the
tensor modes and, for each mode, minimizing over that mode's stacked
factors while the others stay fixed.  One sweep loop, :func:`_sweep`,
runs every fit: a mode visit builds the mode's :class:`SpectralOperator`,
calls the fit's mode solver on it, chosen by the sweep itself from the
fit's mask and ``cfg.reg``, and scores the objective on that same
operator.  Each solver is the code its fit runs, on the fit's real
``(C, *shape)`` signal stack, and the code the acceptance criteria check.
A visit yields only what the sweep reads: its inner work, and, when an
ADMM or CG visit ends with its tolerance unmet, its final residuals,
which the sweep formats into one budget warning.  The sweep hands each
ADMM or CG visit a copy of the config whose inner tolerances carry a
forcing term (Eisenstat & Walker, "Choosing the forcing terms in an
inexact Newton method", 1996): ``max(tol, min(cap tol, 1e-3 change))``,
with ``change`` the last sweep's relative objective change and ``cap``
``_CG_CAP`` for the CG's ``cg_tol`` and ``_ADMM_CAP`` for the ADMM's
``tol_primal`` and ``tol_dual``, so the first sweep runs that much
looser, a converged fit's visits meet the configured tolerances, and a
budget warning means a visit missed its forced one.  Between two sweeps
the factors are extrapolated with restart (Ang, Cohen, Hien & Gillis,
"Extrapolated alternating algorithms for approximate canonical polyadic
decomposition", 2020): every mode's factors move to
``x_k + beta (x_k - x_{k-1})``, from the factors at the ends of the last
two sweeps, and the next sweep starts there if the objective does not
rise, else from ``x_k``; ``beta`` starts at 0.5, grows by 1.1 (at most
to 1) on an accepted step and shrinks by 1.5 on a rejected one.
The solvers, with the inner work a visit adds to
``SolveReport.inner_iters``:

* :func:`solve_mode_l2`, the closed-form ridge solve (squared-norm penalty
  on the factors), one LU of the half Gram stack plus ``alpha I``: 1;
* :func:`solve_mode_admm`, an ADMM loop for the l1 penalty, whose
  quadratic step is the ridge block solve with a proximal term ``rho``;
  one eigendecomposition of the visit's half Gram stack serves every
  ``rho`` the adaptive loop visits, so each step, on the ``(I_n, M*R)``
  factor rows, is two half-spectrum transforms (two products with cached
  DFT matrices for ``I_n <= 32``, see :mod:`lrdec.transform`), two
  batched eigenbasis products and a shrink: its ADMM iterations;
* :func:`_solve_mode_masked_cg`, a conjugate-gradient solve for masked
  signals, where the spatial mask breaks the per-frequency decoupling,
  preconditioned by the unmasked per-frequency blocks with the mask taken
  as its observed fraction: the CG iterations it counts.  The CG is
  :func:`_pcg`, a short numpy loop on the factor rows whose arithmetic
  follows scipy's ``cg`` step for step; the runtime imports numpy only.

Every fit applies the visit's map in the signal domain, on its mode-n
convolution taps (``SpectralOperator.forward`` and ``.adjoint``), which
the operator builds in place, with no FFT, when it is made: the
right-hand side ``W^H s`` is one real product with the taps and ``L_n``
shifted row sums (the MTTKRP of CP-ALS); the objective
``0.5 ||P W x - s||^2``, with ``P`` the mask of a masked fit, is one
gather, one real product and one dot, plus the visited mode's share of
the regularizer; the CG matvec (:func:`_masked_normal`) is the product
and its adjoint.  Known limit: that work grows with the mode-n filter
support ``L_n``, and the Gram blocks, built from the taps' ``B B^T``,
grow as ``L_n**2``.  For the masked matvec on a 64x64 image (M=8, R=3)
it costs about as much as an FFT-based matvec near ``L_n = 20`` taps and
3x as much at ``L_n = I_n``; the l2 and l1 fits pay it too.

The ridge and ADMM solves and the CG preconditioner run in the unitary DFT
domain, where the normal equations split into one small Hermitian system
per mode-n frequency.  Signal and factors are real, so these solves carry
only frequencies ``0..I_n//2`` along mode ``n``, as ``(I_n//2 + 1, M*R)``
rows: :func:`~lrdec.transform.rdft_factor` in and
:func:`~lrdec.transform.irdft_factor` out (the inverse stays real however
ill-conditioned the blocks are), half-spectrum Gram blocks in between.
The visit builds those blocks from the same taps: ``B B^T`` added into
the ``2 L_n - 1`` lag sums and one product with a cos/sin phase matrix,
no FFT; no mode visit makes filter spectra.  So a visit builds only the
operator's taps, its Gram blocks and the solve.  The fit copies the signal
stack, and a masked fit's mask stack, once per mode into mode-major order
(:func:`_mode_major`), and the scoring and the solvers read ``(C, *shape)``
views of that copy whose :func:`stack_to_rows` rows are views too.  The
operator's index arrays and phase matrix are made once per ``(I_n, L_n)``
(see :mod:`lrdec.convmodel`).
"""

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
    a converged fit's visits meet; a fit's early visits run looser, by the
    sweep's forcing term, up to 100x for ``cg_tol`` and 30x for
    ``tol_primal`` and ``tol_dual``, and a fit converges only on a sweep
    run at these.
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
    w, v = np.linalg.eigh(op.gram_blocks())
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


def _init_factors(shape, m_count, rank, seed, signal_norm):
    rng = np.random.default_rng(seed)
    scale = (signal_norm / (m_count * rank)) ** (1.0 / len(shape))
    return [rng.uniform(-0.5, 0.5, size=(m_count, s, rank)) * scale
            for s in shape]


def _prepare_fit(signal, dictionary, cfg):
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
        raise ValueError(f"signal too small: its squared norm {norm * norm:.3g}"
                         f" underflows below {np.finfo(float).tiny:.3g}; "
                         f"rescale the signal")
    factors = _init_factors(shape, dictionary.num_filters, cfg.rank,
                            cfg.seed, norm)
    return s_stack, shape, factors, norm


def _finish(factors):
    m_count = factors[0].shape[0]
    return [KruskalTensor([f[m].copy() for f in factors])
            for m in range(m_count)]


# how far the forcing term may loosen each solver's inner tolerances; the
# ADMM stays at 30x because an early 1e-4 (100x) ADMM tolerance cost one
# l1 fit 2.46 dB, while the CG at 100x lost about 0.001 dB on average
_CG_CAP = 100.0
_ADMM_CAP = 30.0
# the extrapolation's step beta: its start, its growth on an accepted step
# (at most to 1) and its shrink on a rejected one
_BETA_START = 0.5
_BETA_GROW = 1.1
_BETA_SHRINK = 1.5


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


def _sweep(dictionary, shape, factors, cfg, s_obs, signal_norm,
           mask_stack=None):
    """Run the alternating sweep of a fit, updating `factors` in place.

    Each visit calls the fit's mode solver on the visit's operator:
    :func:`_solve_mode_masked_cg` when a `mask_stack` is given, else
    :func:`solve_mode_l2` or :func:`solve_mode_admm` by ``cfg.reg``, with
    one warm-started :class:`AdmmState` per mode.  Each ADMM or CG visit
    runs at its forced tolerances (:func:`_forced`), and one that ends
    with them unmet leaves a budget warning.  Each stack is scored on the
    visit's taps as ``0.5 ||P W x - s_obs||^2``, with ``P`` the mask
    stack of a masked fit; an unmasked l2 fit flags a rising objective,
    and a warm-started l1 visit whose objective rises is redone cold.  A
    ridge solve whose blocks are singular raises a ``ValueError`` naming
    the sweep, mode and ``alpha``, and a failed ADMM eigendecomposition
    one naming the sweep and mode.  Every sweep after the first starts
    from ``x_k + beta (x_k - x_{k-1})``, with ``x_{k-1}`` and ``x_k`` the
    factors at the ends of the last two sweeps (the start before the
    second), when its first operator, built on that point, scores it no
    higher than the last sweep's objective; ``beta`` then grows.
    Otherwise the sweep restarts from ``x_k``, bit for bit, on a rebuilt
    first operator, and ``beta`` shrinks.  The ADMM states stay as they
    were.  `s_obs` and `mask_stack` are copied once per mode into
    mode-major order, and the scoring and solvers read views of those
    copies; `signal_norm`, the norm of `s_obs` that :func:`_prepare_fit`
    took, scales the relative residuals.  Returns the report."""
    report = SolveReport()
    modes = range(len(shape))
    masked = mask_stack is not None
    s_stacks = _mode_major(s_obs, modes)
    if masked:
        mask_stacks = _mode_major(mask_stack, modes)
    scale = cfg.lam if cfg.reg == "l1" else 0.5 * cfg.alpha
    # each l1 mode warm-starts from its own AdmmState, not from its factors
    states = [None] * len(shape)

    def score(op, n):
        """The objective on mode n's operator, with its data and
        regularizer terms."""
        r = op.forward(factors_to_rows(factors[n]))
        if masked:
            r *= stack_to_rows(mask_stacks[n], n)
        r -= stack_to_rows(s_stacks[n], n)
        r = r.ravel()
        data = 0.5 * float(r @ r)
        reg = scale * float(sum(_reg_sum(f, cfg) for f in factors))
        return data, reg, data + reg

    def visit(op, n, tols):
        """Mode n's solve on `op` by the fit's solver, an l1 one from its
        AdmmState: the inner work run and, when the tolerances `tols` went
        unmet, the final residuals against the configured ones."""
        if masked:
            factors[n], iters, residual = _solve_mode_masked_cg(
                op, mask_stacks[n], s_stacks[n], cfg.alpha, factors[n], tols)
            if residual is None:
                return iters, None
            # a nan residual must not read as met
            cmp = "<=" if residual <= cfg.cg_tol else ">"
            return iters, (f"relative residual {residual:.3e} {cmp} cg_tol "
                           f"{cfg.cg_tol:.1e}")
        if cfg.reg == "l2":
            factors[n] = solve_mode_l2(op, s_stacks[n], cfg.alpha)
            return 1, None
        done = states[n].iterations if states[n] else 0
        factors[n], state = solve_mode_admm(op, s_stacks[n], tols,
                                            states[n])
        states[n] = state
        unmet = None
        if state.primal > tols.tol_primal or state.dual > tols.tol_dual:
            unmet = (f"relative primal {state.primal:.3e} (tol_primal "
                     f"{cfg.tol_primal:.1e}), dual {state.dual:.3e} "
                     f"(tol_dual {cfg.tol_dual:.1e})")
        return state.iterations - done, unmet

    # the forcing term: the visits run at the inner tolerances of their
    # solver loosened by the last sweep's relative objective change, at
    # most by the solver's cap (_CG_CAP or _ADMM_CAP), and the first sweep
    # at the cap
    tol_names = ("cg_tol",) if masked else ("tol_primal", "tol_dual") \
        if cfg.reg == "l1" else ()
    cap = _CG_CAP if masked else _ADMM_CAP
    change = np.inf
    # the factors at the end of the last sweep; before the first, the start
    beta, ends = _BETA_START, list(factors)
    for sweep in range(cfg.outer_iters):
        # an l2 fit forces nothing, and skips the config's copy and checks
        tols = replace(cfg, **{name: _forced(getattr(cfg, name), cap, change)
                               for name in tol_names}) if tol_names else cfg
        inner = 0
        if sweep:
            # extrapolate along the last sweep's step; the solves return
            # new arrays, so the lists hold x_{k-1} and x_k as they were
            last, ends = ends, list(factors)
            factors[:] = [x + beta * (x - y) for x, y in zip(ends, last)]
        # the first operator scores the start, or the extrapolated point
        op = SpectralOperator(dictionary, shape, factors, 0)
        trial = score(op, 0)[2]
        if not sweep:
            prev_obj = obj = trial
        elif trial <= obj:
            report.extrapolations.append((beta, True))
            obj, beta = trial, min(1.0, _BETA_GROW * beta)
        else:  # restart from x_k and its first operator
            report.extrapolations.append((beta, False))
            factors[:] = ends
            op = SpectralOperator(dictionary, shape, factors, 0)
            beta /= _BETA_SHRINK
        for n in modes:
            if n:
                op = SpectralOperator(dictionary, shape, factors, n)
            last_obj, warm = obj, states[n] is not None
            ceiling = last_obj + 1e-9 * max(1.0, abs(last_obj))
            try:
                iters, unmet = visit(op, n, tols)
            except np.linalg.LinAlgError:
                if cfg.reg != "l2":  # eigh of blocks overflowed to inf/nan
                    raise ValueError(
                        f"the ADMM's eigendecomposition failed at sweep "
                        f"{sweep} mode {n}: rescale the signal") from None
                # the l2 and masked fits' ridge blocks G + alpha I (or
                # alpha / p) round to singular
                need = "a positive" if cfg.alpha == 0 else "a larger"
                raise ValueError(
                    f"ridge blocks are singular at sweep {sweep} mode {n} "
                    f"with alpha={cfg.alpha:g}: {need} alpha is needed"
                ) from None
            data, reg, obj = score(op, n)
            if warm and obj > ceiling:
                # a warm ADMM state carried onto singular blocks can leave
                # a stale null-space part that grows; redo the visit cold
                states[n] = None
                cold, unmet = visit(op, n, tols)
                iters += cold
                data, reg, obj = score(op, n)
            del op  # free its taps and Gram blocks before the next visit's
            inner += iters
            if unmet:
                report.warnings.append(
                    f"{'cg' if masked else 'admm'} budget exhausted at sweep "
                    f"{sweep} mode {n}: {iters} iterations, {unmet}")
            report.mode_objectives.append(obj)
            if cfg.reg == "l2" and not masked and obj > ceiling:
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
        # only a sweep solved to the configured tolerances ends the fit
        if tols == cfg and abs(prev_obj - obj) <= cfg.tol_outer * abs(
                prev_obj):
            report.converged = True
            break
        change = abs(prev_obj - obj) / abs(prev_obj) if prev_obj else 0.0
        prev_obj = obj
    if signal_norm and not any(f.any() for f in factors):
        report.warnings.append(
            "the fit of a nonzero signal ended at all-zero factors: try a "
            "smaller regularizer weight or rescale the signal")
    return report


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
        The fit starts from seeded random factors drawn from ``cfg.seed``.

    Returns
    -------
    (list of KruskalTensor, SolveReport)
    """
    t0 = time.perf_counter()
    s_stack, shape, factors, norm = _prepare_fit(signal, dictionary, cfg)
    report = _sweep(dictionary, shape, factors, cfg, s_stack, norm)
    report.seconds = time.perf_counter() - t0
    return _finish(factors), report


def _masked_normal(op, mask, alpha, x):
    """Masked normal map ``(W^H P W + alpha I) x`` of ``(I_n, M*R)`` factor
    rows, with ``P`` the spatial `mask` as :func:`stack_to_rows` output
    rows: the CG matvec."""
    y = op.forward(x)
    y *= mask
    y = op.adjoint(y)
    y += alpha * x
    return y


def _pcg(matvec, precondition, b, x0, rtol, maxiter):
    """Preconditioned conjugate gradients on real arrays.

    Solves ``A x = b`` for an SPD ``A`` applied by `matvec`, with
    `precondition` applying an SPD approximation of ``A^-1``.  Stops when
    the running residual is below ``rtol ||b||``, tested before each
    iteration.  Every step repeats the arithmetic of scipy's ``cg``, so
    the two return the same bits (scipy skips ``A x0`` for a zero `x0`, and
    ``A 0`` is exactly 0).  Returns the solution (a copy of ``b`` when it
    is zero), the iterations run and whether the tolerance was met.
    """
    x = np.array(x0, dtype=float)
    bnorm = _norm(b)
    if bnorm == 0:
        return b.copy(), 0, True
    atol = rtol * bnorm
    r = b - matvec(x)
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


def _solve_mode_masked_cg(op, mask_stack, s_obs, alpha, x0, cfg):
    """Preconditioned CG solve of the masked normal equations for one mode.

    The preconditioner replaces the mask by ``p I``, with ``p`` the observed
    fraction, and applies ``(p W^H W + alpha I)^-1`` exactly per mode-n
    frequency; with nothing masked it is the inverse of the system.
    `s_obs` is zero where unobserved.  Returns the factor stack, the CG
    iterations run and, when the budget ran out, the true relative residual
    of the normal equations (CG stops on its running residual, updated by
    recurrence, which can drift from the true one); ``None`` when the
    relative tolerance was met.  The CG runs on ``W^H s`` and `x0` scaled
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
                                    cfg.cg_tol, cfg.cg_max_iters)
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

    # zero where unobserved, so the stack needs no masking
    s_obs, shape, factors, norm = _prepare_fit(
        np.where(mask, signal, 0.0), dictionary, cfg)
    mask_stack = _as_channel_stack(mask.astype(float),
                                   dictionary.num_channels)[0]
    report = _sweep(dictionary, shape, factors, cfg, s_obs, norm, mask_stack)
    activations = _finish(factors)
    completed = forward_model(dictionary, activations)
    report.seconds = time.perf_counter() - t0
    return activations, completed, report
