import re

import numpy as np
import pytest
from scipy.linalg import block_diag

import lrdec.convmodel

from lrdec.convmodel import (Dictionary, SpectralOperator, factor_to_vec,
                             forward_model, signal_to_vec)
from lrdec.solver import (SolverConfig, data_term_gradient, lrd_fit,
                          lrd_fit_masked, soft_threshold, solve_mode_admm,
                          solve_mode_l2, solve_mode_quadratic,
                          _masked_adjoint, _masked_apply, _masked_normal,
                          _solve_mode_masked_cg)
from lrdec.synth import make_filters, make_problem, smooth_low_rank
from lrdec.tensor import KruskalTensor, unfold
from lrdec.transform import dft_factor, dft_nd

from oracles import (fold_by_enumeration, ista_l1,
                     materialize_spatial_forward, materialize_w)

RNG = np.random.default_rng


def factor_stacks(shape, m_count, rank, seed, scale=1.0):
    rng = RNG(seed)
    return [rng.standard_normal((m_count, s, rank)) * scale for s in shape]


def unit_norm_dictionary(support, m_count, seed, channels=1):
    rng = RNG(seed)
    shape = (m_count, channels) + tuple(support)
    filters = rng.standard_normal(shape)
    for m in range(m_count):
        filters[m] /= np.linalg.norm(filters[m])
    if channels == 1:
        return Dictionary(filters[:, 0])
    return Dictionary(filters, channels=True)


def spectral_signal_vec(signal, mode, channels=1):
    if channels == 1:
        stack = signal[None]
    else:
        stack = np.moveaxis(signal, -1, 0)
    return signal_to_vec(np.stack([unfold(dft_nd(c), mode) for c in stack]))


def tiny_problem(shape=(4, 3), m_count=1, rank=1, seed=0, mode=0):
    d = unit_norm_dictionary(tuple(min(2, s) for s in shape), m_count, seed)
    factors = factor_stacks(shape, m_count, rank, seed + 1)
    signal = RNG(seed + 2).standard_normal(shape)
    op = SpectralOperator(d, shape, factors, mode)
    shat = spectral_signal_vec(signal, mode)
    return d, factors, signal, op, shat


class TestSolverConfig:
    @pytest.mark.parametrize("name", ["alpha", "lam", "rho_init"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_weights(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SolverConfig(**{name: value})


class TestSoftThreshold:
    def test_zero_gamma_identity(self):
        v = RNG(0).standard_normal(10)
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_direct_formula(self):
        out = soft_threshold(np.array([2.0, -0.5, 0.0]), 1.0)
        assert np.array_equal(out, np.array([1.0, 0.0, 0.0]))

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.zeros(3), -0.1)

    def test_minimizes_scalar_prox_objective(self):
        rng = RNG(1)
        v = rng.standard_normal(20) * 3
        gamma = 0.7
        out = soft_threshold(v, gamma)
        grid = np.linspace(-10, 10, 20001)
        for vi, oi in zip(v, out):
            vals = gamma * np.abs(grid) + 0.5 * (grid - vi) ** 2
            best = grid[np.argmin(vals)]
            assert abs(oi - best) < 2e-3


class TestSolveModeQuadratic:
    def test_matches_materialized_dense_solve(self):
        d, factors, signal, op, shat = tiny_problem((4, 3), 2, 2, seed=3)
        w = materialize_w(d.filters, (4, 3), factors, 0)
        rng = RNG(4)
        zhat = rng.standard_normal(op.factor_size) + \
            1j * rng.standard_normal(op.factor_size)
        rho = 0.37
        xhat = solve_mode_quadratic(op, shat, zhat, rho)
        svec = spectral_signal_vec(signal, 0)
        dense = np.linalg.solve(
            w.conj().T @ w + rho * np.eye(op.factor_size),
            w.conj().T @ svec + rho * zhat)
        assert np.max(np.abs(xhat - dense)) < 1e-10 * max(
            1.0, np.max(np.abs(dense)))

    def test_normal_equation_residual(self):
        _, _, _, op, shat = tiny_problem((5, 4), 2, 2, seed=5)
        rho = 0.8
        zhat = np.zeros(op.factor_size, dtype=complex)
        xhat = solve_mode_quadratic(op, shat, zhat, rho)
        lhs = op.apply_adjoint(op.apply(xhat)) + rho * xhat
        rhs = op.apply_adjoint(shat)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(rhs))

    def test_zero_filters_passthrough(self):
        shape = (4, 3)
        d = Dictionary(np.zeros((1, 2, 2)))
        factors = factor_stacks(shape, 1, 2, seed=6)
        op = SpectralOperator(d, shape, factors, 0)
        rng = RNG(7)
        zhat = rng.standard_normal(op.factor_size) + \
            1j * rng.standard_normal(op.factor_size)
        xhat = solve_mode_quadratic(op, np.zeros(op.signal_size), zhat, 2.5)
        assert np.max(np.abs(xhat - zhat)) < 1e-12

    def test_small_rho_recovers_least_squares(self):
        d, factors, _, op, _ = tiny_problem((4, 3), 1, 1, seed=8)
        w = materialize_w(d.filters, (4, 3), factors, 0)
        rng = RNG(9)
        xstar = rng.standard_normal(op.factor_size) + \
            1j * rng.standard_normal(op.factor_size)
        shat = w @ xstar
        xhat = solve_mode_quadratic(op, shat, np.zeros(op.factor_size), 1e-10)
        assert np.linalg.norm(xhat - xstar) / np.linalg.norm(xstar) < 1e-4

    def test_rho_must_be_positive(self):
        _, _, _, op, shat = tiny_problem()
        with pytest.raises(ValueError):
            solve_mode_quadratic(op, shat, None, 0.0)


class TestSolveModeL2:
    def test_zero_signal_zero_solution(self):
        _, _, _, op, _ = tiny_problem((4, 3), 2, 2, seed=10)
        xhat = solve_mode_l2(op, np.zeros(op.signal_size), 0.5)
        assert np.max(np.abs(xhat)) < 1e-14

    def test_equals_quadratic_with_zero_shortcut(self):
        _, _, _, op, shat = tiny_problem((4, 3), 2, 2, seed=11)
        a = solve_mode_l2(op, shat, 0.3)
        b = solve_mode_quadratic(op, shat, np.zeros(op.factor_size), 0.3)
        assert np.array_equal(a, b)

    def test_matches_materialized_dense_solve(self):
        d, factors, signal, op, shat = tiny_problem((3, 2, 2), 2, 2, seed=12,
                                                    mode=1)
        w = materialize_w(d.filters, (3, 2, 2), factors, 1)
        alpha = 0.05
        xhat = solve_mode_l2(op, shat, alpha)
        svec = spectral_signal_vec(signal, 1)
        dense = np.linalg.solve(w.conj().T @ w + alpha * np.eye(op.factor_size),
                                w.conj().T @ svec)
        assert np.max(np.abs(xhat - dense)) < 1e-10 * max(
            1.0, np.max(np.abs(dense)))


def admm_objective(a_mat, s_vec, y, lam):
    x = y.transpose(0, 2, 1).reshape(-1)
    return 0.5 * np.sum((a_mat @ x - s_vec) ** 2) + lam * np.sum(np.abs(y))


class TestSolveModeAdmm:
    def test_lambda_zero_matches_least_squares(self):
        d, factors, signal, op, shat = tiny_problem((4, 3), 1, 1, seed=13)
        a_mat = materialize_spatial_forward(d.filters, (4, 3), factors, 0)
        s_vec = signal.reshape(-1, order="F")
        cfg = SolverConfig(reg="l1", lam=0.0, rho_init=1.0, admm_iters=500,
                           tol_primal=1e-12, tol_dual=1e-12)
        y, state = solve_mode_admm(op, shat, cfg)
        xstar, *_ = np.linalg.lstsq(a_mat, s_vec, rcond=None)
        x = y.transpose(0, 2, 1).reshape(-1)
        assert np.linalg.norm(x - xstar) / np.linalg.norm(xstar) < 1e-5
        obj = admm_objective(a_mat, s_vec, y, 0.0)
        obj_star = 0.5 * np.sum((a_mat @ xstar - s_vec) ** 2)
        assert abs(obj - obj_star) <= 1e-4 * max(1.0, abs(obj_star))

    def test_huge_lambda_annihilates(self):
        _, _, _, op, shat = tiny_problem((4, 3), 2, 2, seed=14)
        cfg = SolverConfig(reg="l1", lam=1e6, rho_init=1.0, admm_iters=30,
                           rho_adaptive=False)
        y, _ = solve_mode_admm(op, shat, cfg)
        assert np.array_equal(y, np.zeros_like(y))

    def test_matches_proximal_gradient_reference(self):
        d, factors, signal, op, shat = tiny_problem((4, 3), 1, 1, seed=15)
        lam = 0.1
        a_mat = materialize_spatial_forward(d.filters, (4, 3), factors, 0)
        s_vec = signal.reshape(-1, order="F")
        cfg = SolverConfig(reg="l1", lam=lam, rho_init=1.0, admm_iters=3000,
                           tol_primal=1e-11, tol_dual=1e-11)
        y, _ = solve_mode_admm(op, shat, cfg)
        x_ref = ista_l1(a_mat, s_vec, lam)
        obj = admm_objective(a_mat, s_vec, y, lam)
        obj_ref = 0.5 * np.sum((a_mat @ x_ref - s_vec) ** 2) + \
            lam * np.sum(np.abs(x_ref))
        assert abs(obj - obj_ref) <= 1e-4 * max(1.0, abs(obj_ref))

    def test_residuals_below_tolerance_at_convergence(self):
        _, _, _, op, shat = tiny_problem((4, 3), 2, 2, seed=16)
        cfg = SolverConfig(reg="l1", lam=0.05, admm_iters=2000,
                           tol_primal=1e-8, tol_dual=1e-8)
        _, state = solve_mode_admm(op, shat, cfg)
        assert state.iterations < 2000
        assert state.primal_residuals[-1] <= 1e-8
        assert state.dual_residuals[-1] <= 1e-8

    def test_warm_start_preserves_solution(self):
        _, _, _, op, shat = tiny_problem((4, 3), 2, 2, seed=17)
        cfg = SolverConfig(reg="l1", lam=0.05, admm_iters=2000,
                           tol_primal=1e-10, tol_dual=1e-10)
        y1, state = solve_mode_admm(op, shat, cfg)
        y2, state2 = solve_mode_admm(op, shat, cfg, state)
        assert state2.iterations - state.iterations <= state.iterations
        assert np.max(np.abs(y1 - y2)) < 1e-8 * max(1.0, np.max(np.abs(y1)))


    @pytest.mark.parametrize("shape,channels,mode", [
        ((5, 4), 1, 0), ((4, 5, 3), 2, 1)])
    def test_signal_stack_matches_spectral_vector(self, shape, channels,
                                                  mode):
        d = unit_norm_dictionary((2,) * len(shape), 2, seed=18,
                                 channels=channels)
        factors = factor_stacks(shape, 2, 2, seed=19)
        stack = RNG(20).standard_normal((channels,) + shape)
        shat = signal_to_vec(np.stack([unfold(dft_nd(c), mode)
                                       for c in stack]))
        op = SpectralOperator(d, shape, factors, mode)
        cfg = SolverConfig(reg="l1", lam=0.05, admm_iters=40)
        y_vec, _ = solve_mode_admm(op, shat, cfg)
        y_stack, _ = solve_mode_admm(op, stack, cfg)
        assert np.max(np.abs(y_stack - y_vec)) <= 1e-10 * max(
            1.0, np.max(np.abs(y_vec)))
        with pytest.raises(ValueError):  # a signal without its channel axis
            solve_mode_admm(op, stack[0], cfg)


class TestDataTermGradient:
    @pytest.mark.parametrize("seed", [20, 21, 22, 23, 24])
    def test_matches_central_differences(self, seed):
        shape = (4, 3)
        d = unit_norm_dictionary((2, 2), 2, seed)
        factors = factor_stacks(shape, 2, 2, seed + 100)
        signal = RNG(seed + 200).standard_normal(shape)
        op = SpectralOperator(d, shape, factors, 0)
        shat = spectral_signal_vec(signal, 0)
        x = factors[0].copy()

        def f(xf):
            resid = op.apply(factor_to_vec(dft_factor(xf, axis=1))) - shat
            return 0.5 * float(np.real(np.vdot(resid, resid)))

        grad = data_term_gradient(op, shat, x)
        fd = np.zeros_like(x)
        h = 1e-6
        for idx in np.ndindex(x.shape):
            xp = x.copy()
            xp[idx] += h
            xm = x.copy()
            xm[idx] -= h
            fd[idx] = (f(xp) - f(xm)) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(grad - fd)) / scale < 1e-5


def synthesize(shape, support, m_count, rank, seed):
    d = unit_norm_dictionary(support, m_count, seed)
    factors = factor_stacks(shape, m_count, rank, seed + 1)
    acts = [KruskalTensor([f[m] for f in factors]) for m in range(m_count)]
    return d, acts, forward_model(d, acts)


def psnr(ref, est, peak):
    err = np.mean((np.asarray(ref) - np.asarray(est)) ** 2)
    return np.inf if err == 0 else 10.0 * np.log10(peak ** 2 / err)


class TestLrdFit:
    def test_recovers_self_synthesized_signal(self):
        d, _, signal = synthesize((8, 8, 4), (3, 3, 2), 2, 2, seed=30)
        cfg = SolverConfig(reg="l2", alpha=1e-8, rank=2, outer_iters=100,
                           tol_outer=1e-13, seed=1)
        acts, report = lrd_fit(signal, d, cfg)
        recon = forward_model(d, acts)
        assert psnr(signal, recon, np.max(np.abs(signal))) >= 60.0
        assert report.sweeps <= 100

    def test_zero_signal_zero_objective(self):
        d = unit_norm_dictionary((2, 2), 2, seed=31)
        cfg = SolverConfig(reg="l2", alpha=1e-4, rank=2, outer_iters=5)
        acts, report = lrd_fit(np.zeros((5, 4)), d, cfg)
        assert report.objectives[-1] == 0.0
        for a in acts:
            for f in a.factors:
                assert np.max(np.abs(f)) == 0.0

    def test_delta_filter_cp_decomposition(self):
        rng = RNG(32)
        true = [rng.standard_normal((4, 2)), rng.standard_normal((3, 2)),
                rng.standard_normal((2, 2))]
        signal = KruskalTensor(true).full()
        delta = np.zeros((1, 1, 1, 1))
        delta[0, 0, 0, 0] = 1.0
        d = Dictionary(delta)
        cfg = SolverConfig(reg="l2", alpha=1e-10, rank=3, outer_iters=300,
                           tol_outer=1e-15, seed=2)
        acts, _ = lrd_fit(signal, d, cfg)
        recon = forward_model(d, acts)
        rel = np.linalg.norm(recon - signal) / np.linalg.norm(signal)
        assert rel < 1e-6

    def test_l2_objective_monotone_per_mode(self):
        d, _, signal = synthesize((6, 5, 3), (2, 2, 2), 2, 2, seed=33)
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=15,
                           tol_outer=1e-14, seed=3)
        _, report = lrd_fit(signal, d, cfg)
        trace = report.mode_objectives
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-12 * max(1.0, abs(a))
        assert not report.warnings

    def test_deterministic_objective_trace(self):
        d, _, signal = synthesize((6, 5), (2, 2), 2, 2, seed=34)
        cfg = SolverConfig(reg="l2", alpha=1e-4, rank=2, outer_iters=10,
                           seed=7)
        _, r1 = lrd_fit(signal, d, cfg)
        _, r2 = lrd_fit(signal, d, cfg)
        assert r1.objectives == r2.objectives
        assert r1.mode_objectives == r2.mode_objectives

    def test_l1_path_runs_and_sparsifies(self):
        d, _, signal = synthesize((6, 5), (2, 2), 2, 2, seed=35)
        cfg = SolverConfig(reg="l1", lam=0.5, rank=2, outer_iters=10,
                           admm_iters=50, seed=4)
        acts, report = lrd_fit(signal, d, cfg)
        total = sum(f.size for a in acts for f in a.factors)
        zeros = sum(int(np.sum(f == 0.0)) for a in acts for f in a.factors)
        assert 0 < zeros < total
        assert report.sweeps >= 1

    def test_single_mode_signal(self):
        d = Dictionary(RNG(36).standard_normal((2, 3)))
        signal = RNG(37).standard_normal(12)
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=20,
                           seed=5)
        acts, report = lrd_fit(signal, d, cfg)
        assert acts[0].shape == (12,)
        assert report.objectives[-1] <= report.objectives[0]

    def test_multichannel_fit(self):
        shape = (6, 5)
        d = unit_norm_dictionary((2, 2), 2, seed=38, channels=3)
        factors = factor_stacks(shape, 2, 2, seed=39)
        acts = [KruskalTensor([f[m] for f in factors]) for m in range(2)]
        signal = forward_model(d, acts)
        assert signal.shape == (6, 5, 3)
        cfg = SolverConfig(reg="l2", alpha=1e-8, rank=2, outer_iters=60,
                           tol_outer=1e-13, seed=6)
        fit_acts, _ = lrd_fit(signal, d, cfg)
        recon = forward_model(d, fit_acts)
        assert psnr(signal, recon, np.max(np.abs(signal))) >= 50.0

    def test_rejects_nonfinite_signal(self):
        d = unit_norm_dictionary((2, 2), 1, seed=40)
        bad = np.zeros((4, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            lrd_fit(bad, d, SolverConfig())

    def test_rejects_inconsistent_num_filters(self):
        d = unit_norm_dictionary((2, 2), 2, seed=41)
        cfg = SolverConfig(num_filters=3)
        with pytest.raises(ValueError):
            lrd_fit(np.zeros((4, 4)), d, cfg)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("alpha", [1e-6, 1e-8])
    def test_over_complete_bank_at_tiny_alpha(self, seed, alpha):
        # M*R = 32 > C*Lambda = 16 leaves every frequency block singular up
        # to alpha; solving frequencies i and I - i separately let them
        # drift apart and the inverse transform came out complex
        d, _, signal = make_problem((16, 16), (5, 5), m_count=8, rank=4,
                                    seed=seed)
        cfg = SolverConfig(reg="l2", alpha=alpha, rank=4)
        acts, report = lrd_fit(signal, d, cfg)
        assert not [w for w in report.warnings
                    if w.startswith("l2 objective increased")]
        recon = forward_model(d, acts)
        assert psnr(signal, recon, np.max(np.abs(signal))) >= 60.0


class TestMaskedPath:
    def test_masked_chain_adjoint_identity(self):
        shape = (4, 3)
        # every mode, with one channel and two
        for mode, channels in [(0, 1), (1, 1), (0, 2), (1, 2)]:
            d = unit_norm_dictionary((2, 2), 2, seed=50, channels=channels)
            factors = factor_stacks(shape, 2, 2, seed=51)
            op = SpectralOperator(d, shape, factors, mode)
            rng = RNG(52)
            mask = (rng.uniform(size=(channels,) + shape) > 0.4).astype(float)
            x = rng.standard_normal((2, shape[mode], 2))
            y = rng.standard_normal((channels,) + shape)
            lhs = np.sum(_masked_apply(op, mask, x) * y)
            rhs = np.sum(x * _masked_adjoint(op, mask, y))
            assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))

    MASKED_NORMAL_CASES = [
        ((5, 3), 0, 1, None),          # odd I_n
        ((6, 3), 0, 1, None),          # even I_n
        ((3, 4, 5), 1, 1, None),       # even I_n of a middle mode
        ((4, 5), 1, 2, None),          # C = 2, odd I_n
        ((4, 6), 1, 2, None),          # C = 2, even I_n
        ((7,), 0, 1, None),            # single mode
        ((5, 4), 0, 1, (5, 2)),        # support I_n: every shift wraps
        ((3, 5, 4), 1, 2, (2, 3, 2)),  # C = 2, middle mode of three
    ]

    @pytest.mark.parametrize(
        "shape,mode,channels,support", MASKED_NORMAL_CASES,
        ids=[f"shape{i}-{mode}-{channels}"
             for i, (_, mode, channels, _) in enumerate(MASKED_NORMAL_CASES)])
    def test_masked_normal_matches_dense_oracle(self, shape, mode, channels,
                                                support):
        alpha = 0.3
        if support is None:
            support = tuple(min(2, s - 1) if s > 1 else 1 for s in shape)
        d = unit_norm_dictionary(support, 2, seed=90, channels=channels)
        factors = factor_stacks(shape, 2, 2, seed=91)
        rng = RNG(92)
        mask = (rng.uniform(size=(channels,) + shape) > 0.4).astype(float)
        a_mat = materialize_spatial_forward(d.filters, shape, factors, mode)
        p_vec = np.concatenate([m.reshape(-1, order="F") for m in mask])
        dense = a_mat.T @ (p_vec[:, None] * a_mat) + alpha * np.eye(
            a_mat.shape[1])
        op = SpectralOperator(d, shape, factors, mode)
        x = rng.standard_normal((2, shape[mode], 2))
        got = factor_to_vec(_masked_normal(op, mask, alpha, x))
        want = dense @ factor_to_vec(x)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(
            1.0, np.max(np.abs(want)))

    def test_cg_matches_materialized_dense_solve(self):
        shape = (4, 3)
        alpha = 1e-3
        d = unit_norm_dictionary((2, 2), 1, seed=53)
        factors = factor_stacks(shape, 1, 2, seed=54)
        rng = RNG(55)
        mask_bool = rng.uniform(size=shape) > 0.4
        signal = rng.standard_normal(shape)
        s_obs = np.where(mask_bool, signal, 0.0)

        # dense complex system: T = P F W on the spectral factor vector
        w = materialize_w(d.filters, shape, factors, 0)
        size = int(np.prod(shape))
        f_cols = []
        for j in range(size):
            spec_rows = np.zeros((shape[0], size // shape[0]), dtype=complex)
            spec_rows[j % shape[0], j // shape[0]] = 1.0
            spec = fold_by_enumeration(spec_rows, 0, shape)
            f_cols.append((np.fft.ifftn(spec) * np.sqrt(size)).reshape(-1, order="F"))
        f_mat = np.stack(f_cols, axis=1)
        t_mat = np.diag(mask_bool.reshape(-1, order="F").astype(float)) @ f_mat @ w
        svec = s_obs.reshape(-1, order="F")
        dense = np.linalg.solve(
            t_mat.conj().T @ t_mat + alpha * np.eye(w.shape[1]),
            t_mat.conj().T @ svec)

        op = SpectralOperator(d, shape, factors, 0)
        cfg = SolverConfig(reg="l2", alpha=alpha, cg_tol=1e-12,
                           cg_max_iters=400)
        from lrdec.solver import _solve_mode_masked_cg
        x0 = np.zeros((1, shape[0], 2))
        sol, info = _solve_mode_masked_cg(op, mask_bool[None].astype(float),
                                          s_obs[None], alpha, x0, cfg)
        assert info == 0
        xhat = factor_to_vec(dft_factor(sol, axis=1))
        assert np.linalg.norm(xhat - dense) / max(
            1.0, np.linalg.norm(dense)) < 1e-8

    def test_fit_runs_on_taps_built_once_per_visit(self, monkeypatch):
        calls = {"spectral": 0, "pad_to_shape": 0, "taps_built": 0}

        def spectral(self, rows):
            calls["spectral"] += 1

        def pad_to_shape(filt, shape):
            calls["pad_to_shape"] += 1

        original = SpectralOperator.conv_taps

        def conv_taps(op):
            calls["taps_built"] += op._taps is None
            return original(op)

        monkeypatch.setattr(SpectralOperator, "apply_arrays", spectral)
        monkeypatch.setattr(SpectralOperator, "adjoint_arrays", spectral)
        monkeypatch.setattr(SpectralOperator, "conv_taps", conv_taps)
        monkeypatch.setattr(lrdec.convmodel, "pad_to_shape", pad_to_shape)
        d = unit_norm_dictionary((2, 2, 2), 2, seed=63, channels=2)
        signal = RNG(64).standard_normal((5, 4, 3, 2))
        mask = RNG(65).random(signal.shape) < 0.7
        cfg = SolverConfig(reg="l2", rank=2, outer_iters=3, tol_outer=1e-15)
        report = lrd_fit_masked(signal, mask, d, cfg)[-1]
        assert report.sweeps == 3
        assert calls == {"spectral": 0, "pad_to_shape": 0, "taps_built": 9}

    @pytest.mark.parametrize("shape,support,channels", [
        ((7, 6), (3, 2), 1), ((6, 5, 4), (2, 3, 2), 2)])
    def test_completed_signal_is_the_model_output(self, shape, support,
                                                  channels):
        d = unit_norm_dictionary(support, 3, seed=66, channels=channels)
        rng = RNG(67)
        signal = rng.standard_normal(
            shape + ((channels,) if channels > 1 else ()))
        mask = rng.random(signal.shape) < 0.7
        cfg = SolverConfig(reg="l2", rank=2, outer_iters=3)
        acts, completed, _ = lrd_fit_masked(signal, mask, d, cfg)
        want = forward_model(d, acts)
        assert completed.shape == want.shape
        assert np.max(np.abs(completed - want)) <= 1e-12 * np.max(
            np.abs(want))

    def test_all_true_mask_matches_plain_fit(self):
        d, _, signal = synthesize((5, 4), (2, 2), 2, 2, seed=56)
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=25,
                           tol_outer=1e-14, cg_tol=1e-13, cg_max_iters=600,
                           seed=8)
        acts_plain, _ = lrd_fit(signal, d, cfg)
        acts_masked, completed, report = lrd_fit_masked(
            signal, np.ones(signal.shape, dtype=bool), d, cfg)
        recon_plain = forward_model(d, acts_plain)
        rel = np.linalg.norm(completed - recon_plain) / max(
            1.0, np.linalg.norm(recon_plain))
        assert rel < 1e-8

    def test_requires_l2(self):
        d = unit_norm_dictionary((2, 2), 1, seed=57)
        with pytest.raises(ValueError):
            lrd_fit_masked(np.zeros((4, 4)), np.ones((4, 4), dtype=bool), d,
                           SolverConfig(reg="l1"))

    def test_rejects_empty_mask(self):
        d = unit_norm_dictionary((2, 2), 1, seed=58)
        with pytest.raises(ValueError):
            lrd_fit_masked(np.zeros((4, 4)), np.zeros((4, 4), dtype=bool), d,
                           SolverConfig())

    def test_rejects_shape_mismatch(self):
        d = unit_norm_dictionary((2, 2), 1, seed=59)
        with pytest.raises(ValueError):
            lrd_fit_masked(np.zeros((4, 4)), np.ones((4, 5), dtype=bool), d,
                           SolverConfig())

    def test_interpolates_smooth_low_rank_signal(self):
        # scaled-down completion smoke test; the acceptance suite runs the
        # full-size configuration
        from lrdec.synth import make_filters, smooth_low_rank
        signal = smooth_low_rank((16, 16), 2, seed=60)
        mask = RNG(61).uniform(size=signal.shape) > 0.4
        d = make_filters((3, 3), 10, seed=62, style="smooth")
        cfg = SolverConfig(reg="l2", alpha=1e-4, rank=2, outer_iters=20,
                           cg_tol=1e-8, cg_max_iters=200, seed=9)
        _, completed, _ = lrd_fit_masked(signal, mask, d, cfg)
        assert psnr(signal, completed, 1.0) >= 30.0


def reference_objective(d, acts, signal, cfg, mask=None):
    """Spatial objective of a fit: 0.5 ||mask (forward - s)||^2 + reg."""
    resid = forward_model(d, acts) - signal
    if mask is not None:
        resid = resid * mask
    factors = [f for a in acts for f in a.factors]
    if cfg.reg == "l1":
        reg = cfg.lam * sum(np.sum(np.abs(f)) for f in factors)
    else:
        reg = 0.5 * cfg.alpha * sum(np.sum(f * f) for f in factors)
    return 0.5 * np.sum(resid * resid) + reg


class TestSolveReport:
    @pytest.mark.parametrize("shape,support,reg,channels", [
        ((8, 7), (3, 3), "l2", 1),
        ((8, 7), (3, 3), "l1", 1),
        ((6, 5, 4), (2, 2, 2), "l2", 1),
        ((6, 5, 4), (2, 2, 2), "l1", 1),
        ((8, 7), (3, 3), "l1", 3),
    ])
    def test_objective_matches_spatial_reference(self, shape, support, reg,
                                                 channels):
        d, _, signal = make_problem(shape, support, m_count=2, rank=2,
                                    seed=70, channels=channels)
        cfg = SolverConfig(reg=reg, lam=0.05, alpha=1e-3, rank=2,
                           outer_iters=4, admm_iters=20, seed=11)
        acts, report = lrd_fit(signal, d, cfg)
        ref = reference_objective(d, acts, signal, cfg)
        assert abs(report.objectives[-1] - ref) <= 1e-10 * abs(ref)
        assert report.objectives[-1] == report.mode_objectives[-1]

    @pytest.mark.parametrize("shape,support,channels", [
        ((8, 7), (3, 3), 1), ((6, 5, 4), (2, 2, 2), 1), ((8, 7), (3, 3), 2)])
    def test_masked_objective_matches_spatial_reference(self, shape, support,
                                                        channels):
        d, _, signal = make_problem(shape, support, m_count=2, rank=2,
                                    seed=71, channels=channels)
        mask = RNG(72).uniform(size=signal.shape) > 0.3
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=3,
                           cg_max_iters=30, seed=12)
        acts, _, report = lrd_fit_masked(signal, mask, d, cfg)
        ref = reference_objective(d, acts, np.where(mask, signal, 0.0), cfg,
                                  mask)
        assert abs(report.objectives[-1] - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("shape,support,reg,channels", [
        ((8, 7), (3, 3), "l2", 1),
        ((6, 5, 4), (2, 2, 2), "l2", 1),
        ((6, 5, 4), (2, 2, 2), "l1", 1),
        ((8, 7), (3, 3), "l1", 3),
        ((8, 7), (3, 3), "masked", 1),
        ((6, 5, 4), (2, 2, 2), "masked", 2),
    ])
    def test_relative_residual_matches_spatial_reference(self, shape, support,
                                                         reg, channels):
        d, _, signal = make_problem(shape, support, m_count=2, rank=2,
                                    seed=75, channels=channels)
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", lam=0.05,
                           alpha=1e-3, rank=2, outer_iters=4, admm_iters=20,
                           cg_max_iters=30, seed=18)
        if reg == "masked":
            mask = RNG(76).uniform(size=signal.shape) > 0.3
            acts, _, report = lrd_fit_masked(signal, mask, d, cfg)
            observed = np.where(mask, signal, 0.0)
            resid = (forward_model(d, acts) - signal) * mask
        else:
            acts, report = lrd_fit(signal, d, cfg)
            observed = signal
            resid = forward_model(d, acts) - signal
        assert len(report.relative_residuals) == report.sweeps
        ref = np.linalg.norm(resid) / np.linalg.norm(observed)
        assert abs(report.relative_residuals[-1] - ref) <= 1e-9 * ref
        assert all(np.isclose(r, np.sqrt(2 * t) / np.linalg.norm(observed),
                              rtol=1e-12, atol=0.0)
                   for r, t in zip(report.relative_residuals,
                                   report.data_terms))

    def test_admm_budget_warning_reports_residuals(self):
        d, _, signal = make_problem((6, 5, 4), (2, 2, 2), m_count=2, rank=2,
                                    seed=77)
        cfg = SolverConfig(reg="l1", lam=0.05, rank=2, outer_iters=3,
                           admm_iters=2, tol_primal=1e-14, tol_dual=1e-14,
                           tol_outer=1e-300, seed=19)
        _, report = lrd_fit(signal, d, cfg)
        pattern = re.compile(
            r"admm budget exhausted at sweep (\d+) mode (\d+): (\d+) "
            r"iterations, relative primal (\S+) \(tol_primal (\S+)\), "
            r"dual (\S+) \(tol_dual (\S+)\)$")
        visits = []
        for warning in report.warnings:
            match = pattern.match(warning)
            assert match, warning
            sweep, mode, iters = (int(g) for g in match.groups()[:3])
            primal, tol_p, dual, tol_d = (float(g) for g in match.groups()[3:])
            assert iters == cfg.admm_iters
            assert (tol_p, tol_d) == (cfg.tol_primal, cfg.tol_dual)
            assert primal > tol_p or dual > tol_d
            visits.append((sweep, mode))
        assert visits == [(s, n) for s in range(report.sweeps)
                          for n in range(signal.ndim)]

    def test_admm_within_budget_does_not_warn(self):
        d, _, signal = make_problem((6, 5), (2, 2), m_count=2, rank=2,
                                    seed=78)
        cfg = SolverConfig(reg="l1", lam=0.05, rank=2, outer_iters=3,
                           admm_iters=5000, tol_primal=1e-6, tol_dual=1e-6,
                           seed=20)
        _, report = lrd_fit(signal, d, cfg)
        assert sum(report.inner_iters) < 5000 * 2 * report.sweeps
        assert not report.warnings

    def test_admm_inner_iters_count_each_visit(self):
        d, _, signal = make_problem((6, 5, 4), (2, 2, 2), m_count=2, rank=2,
                                    seed=73)
        cfg = SolverConfig(reg="l1", lam=0.05, rank=2, outer_iters=4,
                           admm_iters=3, tol_primal=1e-300, tol_dual=1e-300,
                           tol_outer=1e-300, seed=13)
        _, report = lrd_fit(signal, d, cfg)
        assert report.inner_iters == [3 * 3] * 4

    def test_masked_inner_iters_count_cg_iterations(self):
        d, _, signal = make_problem((8, 7), (3, 3), m_count=2, rank=2,
                                    seed=74)
        mask = RNG(75).uniform(size=signal.shape) > 0.3
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=3,
                           seed=14)
        _, _, report = lrd_fit_masked(signal, mask, d, cfg)
        assert len(report.inner_iters) == report.sweeps
        assert all(count > signal.ndim for count in report.inner_iters)


def masked_dense_solve(d, shape, factors, mode, mask_stack, s_obs, alpha):
    """Dense solution of the masked normal equations on the spectral factor
    vector: ``T = blockdiag_c(P_c F) W``, one mask ``P_c`` per channel."""
    w = materialize_w(d.filters, shape, factors, mode)
    size = int(np.prod(shape))
    length = shape[mode]
    f_cols = []
    for j in range(size):
        spec_rows = np.zeros((length, size // length), dtype=complex)
        spec_rows[j % length, j // length] = 1.0
        spec = fold_by_enumeration(spec_rows, mode, shape)
        f_cols.append((np.fft.ifftn(spec) * np.sqrt(size)).reshape(-1, order="F"))
    f_mat = np.stack(f_cols, axis=1)
    t_mat = block_diag(*[np.diag(m.reshape(-1, order="F")) @ f_mat
                         for m in mask_stack]) @ w
    svec = np.concatenate([s.reshape(-1, order="F") for s in s_obs])
    return np.linalg.solve(t_mat.conj().T @ t_mat + alpha * np.eye(w.shape[1]),
                           t_mat.conj().T @ svec)


class TestPreconditionedCg:
    @pytest.mark.parametrize("channels,m_count,rank,mode", [
        (2, 2, 2, 0),   # a different mask per channel
        (1, 3, 2, 1),   # over-complete: M*R = 6 > C*Lambda = 4
    ])
    def test_matches_dense_solve(self, channels, m_count, rank, mode):
        shape = (4, 3)
        alpha = 1e-3
        d = unit_norm_dictionary((2, 2), m_count, seed=80, channels=channels)
        factors = factor_stacks(shape, m_count, rank, seed=81)
        rng = RNG(82)
        mask_stack = (rng.uniform(size=(channels,) + shape) > 0.4).astype(float)
        assert channels == 1 or not np.array_equal(mask_stack[0], mask_stack[1])
        s_obs = rng.standard_normal((channels,) + shape) * mask_stack
        dense = masked_dense_solve(d, shape, factors, mode, mask_stack, s_obs,
                                   alpha)

        op = SpectralOperator(d, shape, factors, mode)
        cfg = SolverConfig(reg="l2", alpha=alpha, cg_tol=1e-12,
                           cg_max_iters=400)
        x0 = np.zeros((m_count, shape[mode], rank))
        sol, info = _solve_mode_masked_cg(op, mask_stack, s_obs, alpha, x0,
                                          cfg)
        assert info == 0
        xhat = factor_to_vec(dft_factor(sol, axis=1))
        assert np.linalg.norm(xhat - dense) / max(
            1.0, np.linalg.norm(dense)) < 1e-8

    @pytest.mark.parametrize("shape,support,channels", [
        ((8, 7), (3, 3), 1), ((6, 5, 4), (2, 2, 2), 1), ((8, 7), (3, 3), 2)])
    def test_exact_when_nothing_is_masked(self, shape, support, channels):
        # p = 1 makes the preconditioner the inverse of the system
        d, _, signal = make_problem(shape, support, m_count=2, rank=2,
                                    seed=76, channels=channels)
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=4,
                           seed=15)
        _, _, report = lrd_fit_masked(signal, np.ones(signal.shape, bool), d,
                                      cfg)
        assert report.inner_iters == [len(shape)] * report.sweeps

    def test_default_budget_suffices(self):
        truth = smooth_low_rank((64, 64), 3, seed=77)
        mask = RNG(78).permutation(truth.size).reshape(truth.shape) \
            >= truth.size // 2
        d = make_filters((5, 5), 8, seed=7, style="smooth")
        cfg = SolverConfig(reg="l2", rank=3, outer_iters=8, seed=16)
        assert (cfg.alpha, cfg.cg_max_iters) == (1e-4, 500)
        _, _, report = lrd_fit_masked(truth, mask, d, cfg)
        assert not [w for w in report.warnings
                    if w.startswith("cg budget exhausted")]

    def test_budget_warning_reports_residual(self):
        d, _, signal = make_problem((8, 7), (3, 3), m_count=2, rank=2,
                                    seed=79)
        mask = RNG(80).uniform(size=signal.shape) > 0.3
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=3,
                           cg_tol=1e-14, cg_max_iters=2, seed=17)
        _, _, report = lrd_fit_masked(signal, mask, d, cfg)
        pattern = re.compile(
            r"cg budget exhausted at sweep (\d+) mode (\d+): (\d+) "
            r"iterations, relative residual (\S+) > cg_tol (\S+)$")
        per_sweep = [0] * report.sweeps
        visits = []
        for warning in report.warnings:
            match = pattern.match(warning)
            assert match, warning
            sweep, mode, iters = (int(g) for g in match.groups()[:3])
            residual, tol = (float(g) for g in match.groups()[3:])
            assert residual > cfg.cg_tol and tol == cfg.cg_tol
            assert iters == cfg.cg_max_iters
            per_sweep[sweep] += iters
            visits.append((sweep, mode))
        assert visits == [(s, n) for s in range(report.sweeps)
                          for n in range(signal.ndim)]
        assert per_sweep == report.inner_iters
