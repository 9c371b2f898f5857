import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

import lrdec.solver
from lrdec import convmodel, transform

from lrdec.convmodel import (Dictionary, SpectralOperator, factor_to_vec,
                             factors_to_rows, forward_model, rows_to_factors,
                             signal_to_vec, stack_to_rows)
from lrdec.solver import (SolverConfig, data_term_gradient, lrd_fit,
                          lrd_fit_masked, solve_mode_admm, solve_mode_l2,
                          _masked_normal, _rhs, _solve_mode_masked_cg)
from lrdec.synth import make_filters, make_problem, smooth_low_rank
from lrdec.tensor import KruskalTensor, unfold
from lrdec.transform import dft_factor, dft_nd

from oracles import (admm_l1_by_frequency, fold_by_enumeration,
                     gram_blocks_by_pairs, ista_l1,
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

    @pytest.mark.parametrize("name,value", [
        ("rank", 2.5), ("rank", True), ("rank", 3.0), ("outer_iters", 2.5),
        ("admm_iters", 2.5), ("cg_max_iters", 2.5), ("cg_max_iters", False)])
    def test_rejects_non_integer_counts(self, name, value):
        # a float used to pass and fail deep in numpy once the fit ran
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("name", ["outer_iters", "admm_iters",
                                      "cg_max_iters"])
    def test_zero_budget_names_its_field(self, name):
        # each budget at 0 used to raise "iteration budgets must be >= 1",
        # which named no field
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            SolverConfig(**{name: 0})

    def test_accepts_numpy_integers(self):
        cfg = SolverConfig(rank=np.int64(2), outer_iters=np.int32(3),
                           seed=np.uint8(7))
        assert (cfg.rank, cfg.outer_iters, cfg.seed) == (2, 3, 7)

    @pytest.mark.parametrize("name", ["tol_primal", "tol_dual", "tol_outer",
                                      "cg_tol"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1e-8])
    def test_rejects_non_finite_or_non_positive_tolerances(self, name, value):
        # cg_tol=inf used to pass: the masked fit then ran no CG iteration
        # and stopped after one sweep as converged, with no warning
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite and positive"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value,message", [
        (2.5, "must be an integer"), (True, "must be an integer"),
        (np.float64(3.0), "must be an integer"), ("1", "must be an integer"),
        (-1, "must be >= 0"), (np.int64(-3), "must be >= 0")])
    def test_rejects_seeds_numpy_cannot_use(self, value, message):
        # these used to fail only in the fit, in numpy's SeedSequence, with
        # a message that did not name the field
        with pytest.raises(ValueError, match=f"^seed {message}"):
            SolverConfig(seed=value)


def spectral_factor_vec(x):
    """The spectral factor vector of a real ``(M, I_n, R)`` factor stack."""
    return factor_to_vec(dft_factor(x, axis=1))


class TestSolveModeL2:
    """The ridge mode solve, :func:`solve_mode_l2`, checked on the spectral
    vector API and against dense solves."""

    def test_normal_equation_residual(self):
        _, _, signal, op, shat = tiny_problem((5, 4), 2, 2, seed=5)
        alpha = 0.8
        xhat = spectral_factor_vec(solve_mode_l2(op, signal[None], alpha))
        lhs = op.apply_adjoint(op.apply(xhat)) + alpha * xhat
        rhs = op.apply_adjoint(shat)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(rhs))

    def test_zero_filters_passthrough(self):
        # zero filters pass nothing of the signal through
        shape = (4, 3)
        d = Dictionary(np.zeros((1, 2, 2)))
        factors = factor_stacks(shape, 1, 2, seed=6)
        op = SpectralOperator(d, shape, factors, 0)
        signal = RNG(7).standard_normal((1,) + shape)
        x = solve_mode_l2(op, signal, 2.5)
        assert np.max(np.abs(x)) < 1e-12

    def test_small_alpha_recovers_least_squares(self):
        d, factors, _, op, _ = tiny_problem((4, 3), 1, 1, seed=8)
        a_mat = materialize_spatial_forward(d.filters, (4, 3), factors, 0)
        xstar = RNG(9).standard_normal((1, 4, 1))
        signal = (a_mat @ factor_to_vec(xstar)).reshape((4, 3), order="F")
        x = solve_mode_l2(op, signal[None], 1e-10)
        assert np.linalg.norm(x - xstar) / np.linalg.norm(xstar) < 1e-4

    def test_alpha_must_be_non_negative(self):
        # the ridge weight may be 0, where the blocks are non-singular, but
        # not negative or NaN
        _, _, signal, op, _ = tiny_problem()
        for alpha in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="^alpha must be >= 0"):
                solve_mode_l2(op, signal[None], alpha)

    def test_zero_signal_zero_solution(self):
        _, _, _, op, _ = tiny_problem((4, 3), 2, 2, seed=10)
        x = solve_mode_l2(op, np.zeros((1, 4, 3)), 0.5)
        assert np.max(np.abs(x)) < 1e-14

    def test_matches_materialized_dense_solve(self):
        d, factors, signal, op, _ = tiny_problem((3, 2, 2), 2, 2, seed=12,
                                                 mode=1)
        w = materialize_w(d.filters, (3, 2, 2), factors, 1)
        alpha = 0.05
        xhat = spectral_factor_vec(solve_mode_l2(op, signal[None], alpha))
        svec = spectral_signal_vec(signal, 1)
        dense = np.linalg.solve(w.conj().T @ w + alpha * np.eye(op.factor_size),
                                w.conj().T @ svec)
        assert np.max(np.abs(xhat - dense)) < 1e-10 * max(
            1.0, np.max(np.abs(dense)))

    def test_rejects_a_signal_without_its_channel_axis(self):
        # both solvers take the fit's (C, *shape) signal stack
        _, _, signal, op, _ = tiny_problem((4, 3), 2, 2, seed=11)
        with pytest.raises(ValueError, match="^signal stack of shape"):
            solve_mode_l2(op, signal, 0.5)
        with pytest.raises(ValueError, match="^signal stack of shape"):
            solve_mode_admm(op, signal, SolverConfig(reg="l1"))


def admm_objective(a_mat, s_vec, y, lam):
    x = y.transpose(0, 2, 1).reshape(-1)
    return 0.5 * np.sum((a_mat @ x - s_vec) ** 2) + lam * np.sum(np.abs(y))


class TestSolveModeAdmm:
    def test_lambda_zero_matches_least_squares(self):
        d, factors, signal, op, _ = tiny_problem((4, 3), 1, 1, seed=13)
        a_mat = materialize_spatial_forward(d.filters, (4, 3), factors, 0)
        s_vec = signal.reshape(-1, order="F")
        cfg = SolverConfig(reg="l1", lam=0.0, rho_init=1.0, admm_iters=500,
                           tol_primal=1e-12, tol_dual=1e-12)
        y, state = solve_mode_admm(op, signal[None], cfg)
        xstar, *_ = np.linalg.lstsq(a_mat, s_vec, rcond=None)
        x = y.transpose(0, 2, 1).reshape(-1)
        assert np.linalg.norm(x - xstar) / np.linalg.norm(xstar) < 1e-5
        obj = admm_objective(a_mat, s_vec, y, 0.0)
        obj_star = 0.5 * np.sum((a_mat @ xstar - s_vec) ** 2)
        assert abs(obj - obj_star) <= 1e-4 * max(1.0, abs(obj_star))

    def test_huge_lambda_annihilates(self):
        _, _, signal, op, _ = tiny_problem((4, 3), 2, 2, seed=14)
        cfg = SolverConfig(reg="l1", lam=1e6, rho_init=1.0, admm_iters=30,
                           rho_adaptive=False)
        y, _ = solve_mode_admm(op, signal[None], cfg)
        assert np.array_equal(y, np.zeros_like(y))

    def test_matches_proximal_gradient_reference(self):
        d, factors, signal, op, _ = tiny_problem((4, 3), 1, 1, seed=15)
        lam = 0.1
        a_mat = materialize_spatial_forward(d.filters, (4, 3), factors, 0)
        s_vec = signal.reshape(-1, order="F")
        cfg = SolverConfig(reg="l1", lam=lam, rho_init=1.0, admm_iters=3000,
                           tol_primal=1e-11, tol_dual=1e-11)
        y, _ = solve_mode_admm(op, signal[None], cfg)
        x_ref = ista_l1(a_mat, s_vec, lam)
        obj = admm_objective(a_mat, s_vec, y, lam)
        obj_ref = 0.5 * np.sum((a_mat @ x_ref - s_vec) ** 2) + \
            lam * np.sum(np.abs(x_ref))
        assert abs(obj - obj_ref) <= 1e-4 * max(1.0, abs(obj_ref))

    def test_residuals_below_tolerance_at_convergence(self):
        _, _, signal, op, _ = tiny_problem((4, 3), 2, 2, seed=16)
        cfg = SolverConfig(reg="l1", lam=0.05, admm_iters=2000,
                           tol_primal=1e-8, tol_dual=1e-8)
        _, state = solve_mode_admm(op, signal[None], cfg)
        assert state.iterations < 2000
        assert state.primal <= 1e-8
        assert state.dual <= 1e-8

    def test_warm_start_preserves_solution(self):
        _, _, signal, op, _ = tiny_problem((4, 3), 2, 2, seed=17)
        cfg = SolverConfig(reg="l1", lam=0.05, admm_iters=2000,
                           tol_primal=1e-10, tol_dual=1e-10)
        y1, state = solve_mode_admm(op, signal[None], cfg)
        cold = state.iterations
        y2, state = solve_mode_admm(op, signal[None], cfg, state)
        # a running total: the warm solve ran at least one step and fewer
        # than the cold one
        assert cold < state.iterations < 2 * cold
        assert np.max(np.abs(y1 - y2)) < 1e-8 * max(1.0, np.max(np.abs(y1)))

    @pytest.mark.parametrize("rho_init", [1e-8, 1e-15, 1e-17])
    def test_singular_blocks_match_proximal_gradient_reference(self,
                                                               rho_init):
        # M*R = 6 > C*Lambda = 1: every Gram block has rank 1, and at
        # rho = 1e-17 the shifted blocks G + rho I round to singular
        shape, lam = (6,), 0.05
        d = unit_norm_dictionary((3,), 3, seed=70)
        factors = factor_stacks(shape, 3, 2, seed=71)
        signal = RNG(72).standard_normal(shape)
        op = SpectralOperator(d, shape, factors, 0)
        cfg = SolverConfig(reg="l1", lam=lam, rho_init=rho_init,
                           admm_iters=3000, tol_primal=1e-11, tol_dual=1e-11)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y, _ = solve_mode_admm(op, signal[None], cfg)
        a_mat = materialize_spatial_forward(d.filters, shape, factors, 0)
        x_ref = ista_l1(a_mat, signal, lam)
        obj = admm_objective(a_mat, signal, y, lam)
        obj_ref = 0.5 * np.sum((a_mat @ x_ref - signal) ** 2) + \
            lam * np.sum(np.abs(x_ref))
        assert abs(obj - obj_ref) <= 1e-4 * max(1.0, abs(obj_ref))

    @pytest.mark.parametrize("shape,rho_init", [((6, 5), 1.0),
                                                ((5, 6), 100.0)])
    def test_matches_stack_reference_over_warm_starts(self, shape, rho_init):
        # the loop runs on (I_n, M*R) rows and rescales its step only when
        # rho moves; the reference runs the stack loop with a dense solve
        # of G_i + rho I per frequency and step
        mode, m_count, rank = 1, 2, 2
        d = unit_norm_dictionary((2, 2), m_count, seed=83)
        factors = factor_stacks(shape, m_count, rank, seed=84)
        signal = RNG(85).standard_normal(shape)
        op = SpectralOperator(d, shape, factors, mode)
        cfg = SolverConfig(reg="l1", lam=0.05, rho_init=rho_init,
                           admm_iters=25, tol_primal=1e-9, tol_dual=1e-9)
        a_mat = materialize_spatial_forward(d.filters, shape, factors, mode)
        length = shape[mode]
        rhs = (a_mat.T @ signal.reshape(-1, order="F")).reshape(
            m_count, rank, length).transpose(0, 2, 1)
        gram = gram_blocks_by_pairs(d.filters, shape, factors, mode)
        zero = np.zeros((m_count, length, rank))
        ref = dict(x=zero, y=zero, u=zero, rho=rho_init, iterations=0,
                   primal=[], dual=[], rhos=[])
        state = None
        for _ in range(3):
            y, state = solve_mode_admm(op, signal[None], cfg, state)
            admm_l1_by_frequency(gram, rhs, cfg.lam, ref, cfg.admm_iters,
                                 cfg.tol_primal, cfg.tol_dual, adaptive=True)
            assert y.shape == zero.shape
            np.testing.assert_allclose(y, ref["y"], rtol=0, atol=1e-10)
            # x is implied: u_new = u_prev + x - y
            for name in ("y", "u"):
                got = getattr(state, name)
                assert got.shape == (length, m_count * rank)
                np.testing.assert_allclose(rows_to_factors(got, m_count),
                                           ref[name], rtol=0, atol=1e-10)
            assert state.rho == ref["rho"]
            assert state.iterations == ref["iterations"]
            np.testing.assert_allclose(state.primal, ref["primal"][-1],
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(state.dual, ref["dual"][-1],
                                       rtol=0, atol=1e-10)
        steps = np.divide(ref["rhos"][1:], ref["rhos"][:-1])
        assert np.any(steps == 2.0) and np.any(steps == 0.5)


class TestDataTermGradient:
    @staticmethod
    def check_against_central_differences(seed, complex_target):
        shape = (4, 3)
        d = unit_norm_dictionary((2, 2), 2, seed)
        factors = factor_stacks(shape, 2, 2, seed + 100)
        rng = RNG(seed + 200)
        if complex_target:
            shat = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        else:
            shat = spectral_signal_vec(rng.standard_normal(shape), 0)
        op = SpectralOperator(d, shape, factors, 0)
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

    @pytest.mark.parametrize("seed", [20, 21, 22, 23, 24])
    def test_matches_central_differences(self, seed):
        self.check_against_central_differences(seed, complex_target=False)

    @pytest.mark.parametrize("seed", [25, 26])
    def test_complex_target_matches_central_differences(self, seed):
        # a spectral target that is no real signal's spectrum used to raise
        # an imaginary-residue error; the data term is still a smooth
        # function of the real factors
        self.check_against_central_differences(seed, complex_target=True)


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

    def test_rejects_complex_signal(self):
        d = unit_norm_dictionary((2, 2), 1, seed=40)
        with pytest.raises(ValueError, match="complex128"):
            lrd_fit(np.ones((4, 4), dtype=complex), d, SolverConfig())

    @pytest.mark.parametrize("masked", [False, True])
    def test_stopping_and_residuals_are_scale_free(self, masked):
        # fitting c s with alpha c on two modes scales the factors by
        # sqrt(c) and leaves the relative residuals as they are
        d, _, signal = make_problem((16, 12), (5, 5), m_count=4, rank=2,
                                    seed=1)
        mask = RNG(2).uniform(size=signal.shape) > 0.3
        runs = {}
        for c in (1e-100, 1e-20, 1.0, 1e100):
            if masked:
                cfg = SolverConfig(reg="l2", alpha=3e-3 * c, rank=2,
                                   outer_iters=8, cg_tol=1e-10)
                report = lrd_fit_masked(c * signal, mask, d, cfg)[2]
            else:
                cfg = SolverConfig(reg="l2", alpha=1e-4 * c, rank=2,
                                   outer_iters=40)
                report = lrd_fit(c * signal, d, cfg)[1]
            runs[c] = report
        want = runs[1.0]
        assert want.sweeps == cfg.outer_iters and not want.converged
        for c, report in runs.items():
            assert (report.sweeps, report.converged) == (want.sweeps,
                                                         want.converged), c
            np.testing.assert_allclose(report.relative_residuals,
                                       want.relative_residuals, rtol=1e-6,
                                       atol=0, err_msg=f"c={c}")

    @pytest.mark.parametrize("c", [1e-160, 1e-170, 1e-200])
    @pytest.mark.parametrize("reg", ["l2", "l1", "masked"])
    def test_refuses_a_signal_whose_squared_norm_underflows(self, reg, c):
        # the squared norm is subnormal at 1e-160 and 0 below; unrefused, the
        # fit at 1e-170 returned zero factors as converged with a relative
        # residual of 0 (the true one is 1), and at 1e-160 it misreported it
        d, _, signal = make_problem((16, 12), (5, 5), m_count=4, rank=2,
                                    seed=1)
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", lam=1e-4 * c,
                           alpha=1e-4 * c, rank=2, outer_iters=3)
        with pytest.raises(ValueError, match="^signal too small: .* rescale"):
            if reg == "masked":
                mask = RNG(2).uniform(size=signal.shape) > 0.3
                lrd_fit_masked(c * signal, mask, d, cfg)
            else:
                lrd_fit(c * signal, d, cfg)

    @pytest.mark.parametrize("c", [1e153, 1e200])
    @pytest.mark.parametrize("reg", ["l2", "l1", "masked"])
    def test_refuses_a_signal_whose_squared_norm_overflows(self, reg, c):
        # unrefused, the norm overflowed in the first line of the fit and
        # the start factors were scaled by inf: the l2 fit failed later with
        # a non-finite objective, the l1 fit in its eigendecomposition
        d, _, signal = make_problem((16, 12), (5, 5), m_count=4, rank=2,
                                    seed=1)
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", lam=1e-3,
                           alpha=1e-4, rank=2, outer_iters=3)
        with pytest.raises(ValueError, match="^signal too large: its squared "
                                             "norm overflows .* rescale"):
            if reg == "masked":
                mask = RNG(2).uniform(size=signal.shape) > 0.3
                lrd_fit_masked(c * signal, mask, d, cfg)
            else:
                lrd_fit(c * signal, d, cfg)

    @pytest.mark.parametrize("reg", ["l2", "l1", "masked"])
    def test_a_signal_just_below_the_overflow_is_fitted(self, reg):
        d, _, signal = make_problem((16, 12), (5, 5), m_count=4, rank=2,
                                    seed=1)
        c = 1e150
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2",
                           lam=1e-3 * c ** 1.5, alpha=1e-4, rank=2,
                           outer_iters=3)
        if reg != "masked":
            report = lrd_fit(c * signal, d, cfg)[1]
            assert np.all(np.isfinite(report.objectives))
            return
        # the CG's squared norms of W^H s overflowed although ||s||^2 does
        # not: at 1e120 every visit spent its budget and the completion's
        # residual was 1.8e23, at 1e150 the objective became nan.  Now each
        # follows the fit at 1e10; at all three scales the ridge weight is
        # negligible against the data term
        mask = RNG(2).uniform(size=signal.shape) > 0.3
        ordinary, *scaled = (lrd_fit_masked(scale * signal, mask, d, cfg)[2]
                             for scale in (1e10, 1e120, c))
        for report in scaled:
            assert not report.warnings
            np.testing.assert_allclose(report.relative_residuals,
                                       ordinary.relative_residuals, rtol=1e-2)

    @pytest.mark.parametrize("reg", ["l1", "l2", "masked"])
    def test_zero_signal_reports_zero_relative_residual(self, reg):
        d = unit_norm_dictionary((2, 2), 2, seed=31)
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", rank=2,
                           outer_iters=3)
        if reg == "masked":
            mask = RNG(3).uniform(size=(5, 4)) > 0.5
            report = lrd_fit_masked(np.zeros((5, 4)), mask, d, cfg)[2]
        else:
            report = lrd_fit(np.zeros((5, 4)), d, cfg)[1]
        assert report.converged
        assert report.relative_residuals == [0.0] * report.sweeps

    def test_l1_eigendecomposition_failure_asks_to_rescale(self):
        # at this scale of the filters the Gram blocks overflow and the
        # first visit's eigh fails; it used to escape as a bare LinAlgError
        # (a signal whose squared norm overflows is refused before the fit)
        d, _, signal = make_problem((16, 12), (5, 5), m_count=4, rank=2,
                                    seed=1)
        c = 1e160
        cfg = SolverConfig(reg="l1", lam=1e-3, rank=2, outer_iters=20)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="^the ADMM's eigendecomposition failed at "
                                  "sweep 0 mode 0: rescale the signal$"):
            lrd_fit(signal, Dictionary(c * d.filters, channels=True), cfg)

    def test_all_zero_factors_of_a_nonzero_signal_warn(self):
        # lam scaled with the signal as the model's scaling says, but rho
        # starts at 1 and the ADMM shrinks every factor to 0, reported as
        # converged at a relative residual of 1
        d, _, signal = make_problem((16, 12), (5, 5), m_count=4, rank=2,
                                    seed=1)
        c = 1e20
        cfg = SolverConfig(reg="l1", lam=1e-3 * c ** 1.5, rank=2,
                           outer_iters=20)
        acts, report = lrd_fit(c * signal, d, cfg)
        assert not any(f.any() for a in acts for f in a.factors)
        assert report.relative_residuals[-1] == pytest.approx(1.0)
        zero = [w for w in report.warnings if "all-zero factors" in w]
        assert zero == ["the fit of a nonzero signal ended at all-zero "
                        "factors: try a smaller regularizer weight or "
                        "rescale the signal"]
        # at c = 1 the same fit keeps its factors and does not warn
        cfg = replace(cfg, lam=1e-3)
        acts, report = lrd_fit(signal, d, cfg)
        assert not [w for w in report.warnings if "all-zero" in w]

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

    def test_l1_warm_start_on_singular_blocks_is_redone_cold(self,
                                                             monkeypatch):
        # M*R = 12 > C*Lambda = 1 on a 1-D signal: every block is singular.
        # The warm state carried into the next visit used to grow without
        # bound (relative residuals 1e-15, 0.94, 1e15, 1e30, 1e45); the
        # visit whose objective rises is now redone cold
        original = lrdec.solver.solve_mode_admm
        calls = []

        def recorded(op, signal, cfg, state=None):
            done = state.iterations if state else 0
            y, state_out = original(op, signal, cfg, state)
            calls.append((state is None, state_out.iterations - done))
            return y, state_out

        monkeypatch.setattr(lrdec.solver, "solve_mode_admm", recorded)
        signal = RNG(0).standard_normal(20)
        d = make_filters((5,), 6, seed=0)
        cfg = SolverConfig(reg="l1", lam=0.0, rank=2, outer_iters=5)
        _, report = lrd_fit(signal, d, cfg)
        assert report.converged
        assert max(report.relative_residuals) < 1e-12
        assert [cold for cold, _ in calls].count(True) > 1
        assert sum(report.inner_iters) == sum(iters for _, iters in calls)

    def test_l2_singular_ridge_blocks_ask_for_positive_alpha(self):
        # M*R = 8 > C*Lambda = 1 on a 1-D signal: alpha = 0 leaves every
        # ridge block singular
        d, _, signal = make_problem((16,), (5,), m_count=4, rank=2, seed=0)
        cfg = SolverConfig(reg="l2", alpha=0.0, rank=2)
        with pytest.raises(ValueError, match=r"^ridge blocks are singular "
                           r"at sweep 0 mode 0 with alpha=0: a positive "
                           r"alpha is needed$"):
            lrd_fit(signal, d, cfg)
        # alpha = 0 stays valid where the blocks are non-singular
        d, _, signal = synthesize((6, 5), (2, 2), 1, 1, seed=42)
        _, report = lrd_fit(signal, d, SolverConfig(reg="l2", alpha=0.0,
                                                    rank=1, outer_iters=5))
        assert report.sweeps >= 1
        assert np.isfinite(report.objectives[-1])

    def test_masked_singular_preconditioner_asks_for_larger_alpha(self):
        # M*R = 12 > C*Lambda = 1 on a 1-D signal: at alpha = 1e-300 the
        # preconditioner's blocks G + (alpha / p) I round to singular
        signal = RNG(0).standard_normal(20)
        d = make_filters((5,), 6, seed=0)
        mask = RNG(1).uniform(size=20) > 0.3
        cfg = SolverConfig(alpha=1e-300, rank=2, outer_iters=5)
        with pytest.raises(ValueError, match=r"^ridge blocks are singular "
                           r"at sweep 0 mode 0 with alpha=1e-300: a larger "
                           r"alpha is needed$"):
            lrd_fit_masked(signal, mask, d, cfg)

    @pytest.mark.parametrize("reg", ["l2", "l1", "masked"])
    def test_non_finite_objective_stops_the_visit_that_made_it(
            self, reg, monkeypatch):
        # NaN factors from mode 0's solve: the fit used to run mode 1 on
        # them and then fail naming no visit (l2) or the wrong visit and
        # cause (l1: the next visit's eigendecomposition)
        name = {"l2": "solve_mode_l2", "l1": "solve_mode_admm",
                "masked": "_solve_mode_masked_cg"}[reg]
        original = getattr(lrdec.solver, name)
        visits = []

        def nan_at_mode_0(op, *args):
            visits.append(op.mode)
            result = original(op, *args)
            if op.mode:
                return result
            nan = np.full((op.num_filters, op.mode_length, op.rank), np.nan)
            return (nan,) + result[1:] if isinstance(result, tuple) else nan

        monkeypatch.setattr(lrdec.solver, name, nan_at_mode_0)
        d, _, signal = make_problem((6, 5), (2, 2), m_count=2, rank=2,
                                    seed=3)
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", lam=0.05,
                           alpha=1e-3, rank=2, outer_iters=3)
        with pytest.raises(ValueError, match=r"^objective became non-finite "
                           r"at sweep 0 mode 0: nan$"):
            if reg == "masked":
                mask = RNG(4).uniform(size=signal.shape) > 0.3
                lrd_fit_masked(signal, mask, d, cfg)
            else:
                lrd_fit(signal, d, cfg)
        assert visits == [0]

    def test_l2_rise_warning_names_the_mode_and_both_objectives(
            self, monkeypatch):
        # zero factors at mode 1 leave the whole signal unexplained, so the
        # unmasked l2 fit's objective rises over mode 0's
        original = lrdec.solver.solve_mode_l2

        def zero_at_mode_1(op, signal, alpha):
            result = original(op, signal, alpha)
            return np.zeros_like(result) if op.mode == 1 else result

        monkeypatch.setattr(lrdec.solver, "solve_mode_l2", zero_at_mode_1)
        d, _, signal = make_problem((6, 5), (2, 2), m_count=2, rank=2,
                                    seed=3)
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=1)
        report = lrd_fit(signal, d, cfg)[1]
        before, after = report.mode_objectives
        assert after > before
        assert report.warnings == [f"l2 objective increased at mode 1: "
                                   f"{before:.6e} -> {after:.6e}"]

    @pytest.mark.parametrize("reg", ["l2", "l1", "masked"])
    def test_fits_run_the_public_solvers_once_per_visit(self, reg,
                                                        monkeypatch):
        # the solvers the acceptance criteria check are the fits' own
        name = {"l2": "solve_mode_l2", "l1": "solve_mode_admm",
                "masked": "_solve_mode_masked_cg"}[reg]
        original = getattr(lrdec.solver, name)
        calls = []

        def counted(op, *args):
            result = original(op, *args)
            calls.append((op.mode, result))
            return result

        monkeypatch.setattr(lrdec.solver, name, counted)
        d, _, signal = synthesize((5, 4, 3), (2, 2, 2), 2, 2, seed=45)
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", lam=0.05,
                           rank=2, outer_iters=3, admm_iters=20,
                           tol_outer=1e-15)
        if reg == "masked":
            mask = RNG(46).uniform(size=signal.shape) > 0.3
            report = lrd_fit_masked(signal, mask, d, cfg)[-1]
        else:
            report = lrd_fit(signal, d, cfg)[-1]
        assert report.sweeps == 3
        assert [mode for mode, _ in calls] == [0, 1, 2] * 3
        if reg == "masked":  # the CG reports the iterations it ran
            iters = [result[1] for _, result in calls]
            assert [sum(iters[3 * s:3 * s + 3]) for s in range(3)] == \
                report.inner_iters
            assert all(result[2] is None for _, result in calls)

    def test_l1_factors_gram_once_per_visit_and_l2_solves_once(
            self, monkeypatch):
        # every fit builds each visit's Gram blocks once and factors each of
        # its I_n//2 + 1 blocks once: eigh for l1, an LU solve for l2, the
        # CG preconditioner's inv for the masked fit; an l2 or masked fit's
        # start adds one eigh of the M unfolding Grams per mode after the
        # first, an l1 fit's none.  Counted in blocks, not calls: an l1
        # visit may split its stack over two eigh calls, one on the worker
        events = []  # (name, blocks), appended from either thread

        def count(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                # a Gram build's blocks are its result's, a solve's its input's
                events.append((name, len(result if name == "gram_blocks"
                                         else args[0])))
                return result
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("eigh", "solve", "inv"):
            count(lrdec.solver.np.linalg, name)
        count(SpectralOperator, "gram_blocks")
        d, _, signal = synthesize((5, 4, 3), (2, 2, 2), 2, 2, seed=43)
        mask = RNG(46).uniform(size=signal.shape) > 0.3
        for reg, factored in [("l1", "eigh"), ("l2", "solve"),
                              ("masked", "inv")]:
            events.clear()
            cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", lam=0.05,
                               rank=2, outer_iters=3, admm_iters=50,
                               tol_outer=1e-15)
            if reg == "masked":
                report = lrd_fit_masked(signal, mask, d, cfg)[-1]
            else:
                report = lrd_fit(signal, d, cfg)[-1]
            assert report.sweeps == 3
            if reg == "l1":  # more ADMM steps than visits
                assert sum(report.inner_iters) > 9
            # per visit, the blocks built and the blocks factored after the
            # build: I_n//2 + 1 = 3, 3 and 2 for modes 0, 1 and 2
            visits = []
            for name, blocks in events:
                if name == "gram_blocks":
                    visits.append([blocks, 0])
                elif name == factored:
                    visits[-1][1] += blocks
            assert visits == [[b, b] for b in [3, 3, 2] * 3], reg
            totals = dict.fromkeys(["eigh", "solve", "inv", "gram_blocks"], 0)
            for name, blocks in events:
                totals[name] += blocks
            want = dict(eigh=0 if reg == "l1" else 2 * 2, solve=0, inv=0,
                        gram_blocks=24)
            assert totals == dict(want, **{factored: want[factored] + 24}), \
                reg


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
            # on the taps' rows: <P W x, y> = <x, W^T P y>
            x_rows = x.transpose(1, 0, 2).reshape(shape[mode], -1)
            mask_rows, y_rows = (stack_to_rows(a, mode) for a in (mask, y))
            lhs = np.sum(op.forward(x_rows) * mask_rows * y_rows)
            rhs = np.sum(x_rows * op.adjoint(y_rows * mask_rows))
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
        # on the (I_n, M*R) factor rows and the mask's output rows
        rows = _masked_normal(op, stack_to_rows(mask, mode), alpha,
                              x.transpose(1, 0, 2).reshape(shape[mode], -1))
        got = factor_to_vec(rows.reshape(shape[mode], 2, 2).transpose(1, 0, 2))
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
        x0 = np.zeros((1, shape[0], 2))
        sol, _, residual = _solve_mode_masked_cg(
            op, mask_bool[None].astype(float), s_obs[None], alpha, x0, cfg)
        assert residual is None
        xhat = factor_to_vec(dft_factor(sol, axis=1))
        assert np.linalg.norm(xhat - dense) / max(
            1.0, np.linalg.norm(dense)) < 1e-8

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
        assert np.array_equal(completed, forward_model(d, acts))

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

    def test_rejects_complex_signal(self):
        d = unit_norm_dictionary((2, 2), 1, seed=59)
        with pytest.raises(ValueError, match="complex64"):
            lrd_fit_masked(np.ones((4, 4), dtype=np.complex64),
                           np.ones((4, 4), dtype=bool), d, SolverConfig())

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

    def test_admm_budget_warning_reports_residuals(self, monkeypatch):
        original = lrdec.solver.solve_mode_admm
        residuals = []

        def recorded(op, *args):
            y, state = original(op, *args)
            residuals.append((state.primal, state.dual))
            return y, state

        monkeypatch.setattr(lrdec.solver, "solve_mode_admm", recorded)
        d, _, signal = make_problem((6, 5, 4), (2, 2, 2), m_count=2, rank=2,
                                    seed=77)
        cfg = SolverConfig(reg="l1", lam=0.05, rank=2, outer_iters=3,
                           admm_iters=2, tol_primal=1e-14, tol_dual=1e-14,
                           tol_outer=1e-300, seed=19)
        _, report = lrd_fit(signal, d, cfg)
        assert len(residuals) == len(report.warnings)
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
            # the printed residuals are that visit's AdmmState's
            state_primal, state_dual = residuals[len(visits)]
            assert match.group(4) == f"{state_primal:.3e}"
            assert match.group(6) == f"{state_dual:.3e}"
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


class TestForcingTerm:
    """The sweep hands each visit its inner tolerances forced by the last
    sweep's relative objective change: the solver's cap (100x for CG, 30x
    for ADMM) times the configured ones on the first sweep, the configured
    ones again as the fit converges."""

    @pytest.mark.parametrize("reg,cap", [("masked", 100), ("l1", 30)],
                             ids=["masked", "l1"])
    def test_schedule_ends_at_the_configured_tolerances(self, reg, cap,
                                                        monkeypatch):
        visits = []  # (tolerances, true CG residual or None) per visit
        if reg == "masked":
            original = lrdec.solver._solve_mode_masked_cg

            def recorded(op, mask_stack, s_obs, alpha, x0, cfg, *rest):
                result = original(op, mask_stack, s_obs, alpha, x0, cfg,
                                  *rest)
                # the normal-equation residual, as the CG solve reports it
                rhs = _rhs(op, s_obs)
                x = factors_to_rows(result[0])
                mask_rows = stack_to_rows(mask_stack, op.mode)
                residual = np.linalg.norm(
                    rhs - _masked_normal(op, mask_rows, alpha, x)) \
                    / np.linalg.norm(rhs)
                visits.append(((cfg.cg_tol,), residual))
                return result

            monkeypatch.setattr(lrdec.solver, "_solve_mode_masked_cg",
                                recorded)
        else:
            original = lrdec.solver.solve_mode_admm

            def recorded(op, signal, cfg, state=None):
                visits.append(((cfg.tol_primal, cfg.tol_dual), None))
                return original(op, signal, cfg, state)

            monkeypatch.setattr(lrdec.solver, "solve_mode_admm", recorded)
        seed = 72 if reg == "masked" else 70
        d, _, signal = make_problem((6, 5), (2, 2), m_count=2, rank=2,
                                    seed=seed)
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", lam=0.3,
                           alpha=1.0, rank=2, outer_iters=300,
                           admm_iters=2000, tol_outer=1e-12, seed=seed)
        if reg == "masked":
            mask = RNG(seed + 1).uniform(size=signal.shape) > 0.3
            report = lrd_fit_masked(signal, mask, d, cfg)[2]
            tols = (cfg.cg_tol,)
        else:
            report = lrd_fit(signal, d, cfg)[1]
            tols = (cfg.tol_primal, cfg.tol_dual)
        assert report.converged and report.sweeps > 2
        assert len(visits) == 2 * report.sweeps
        sweeps = [[v for v, _ in visits[2 * s:2 * s + 2]]
                  for s in range(report.sweeps)]
        assert sweeps[0] == [tuple(cap * t for t in tols)] * 2
        objectives = report.objectives
        for s in range(2, report.sweeps):
            change = abs(objectives[s - 2] - objectives[s - 1]) \
                / abs(objectives[s - 2])
            want = tuple(max(t, min(cap * t, 1e-3 * change)) for t in tols)
            assert sweeps[s] == [want] * 2, s
        for visit in sweeps:
            for got in visit:
                assert all(t <= g <= cap * t for g, t in zip(got, tols))
        assert sweeps[-1] == [tols] * 2
        if reg == "masked":
            assert visits[-1][1] <= 10 * cfg.cg_tol

    def test_a_loose_sweep_does_not_end_the_fit(self, monkeypatch):
        # one mode: the first visits nearly solve the fit, so the second
        # sweep, still at 30x, changes the objective by under tol_outer
        original = lrdec.solver.solve_mode_admm
        visits = []

        def recorded(op, signal, cfg, state=None):
            visits.append((cfg.tol_primal, cfg.tol_dual))
            return original(op, signal, cfg, state)

        monkeypatch.setattr(lrdec.solver, "solve_mode_admm", recorded)
        d, _, signal = make_problem((12,), (3,), m_count=2, rank=2, seed=70)
        cfg = SolverConfig(reg="l1", lam=0.3, rank=2, admm_iters=2000,
                           tol_primal=1e-9, tol_dual=1e-9, tol_outer=1e-12,
                           seed=70)
        _, report = lrd_fit(signal, d, cfg)
        assert report.converged
        tols = (cfg.tol_primal, cfg.tol_dual)
        assert visits[:2] == [(30 * tols[0], 30 * tols[1])] * 2
        assert visits[-1] == tols
        change = abs(report.objectives[-2] - report.objectives[-3]) \
            / abs(report.objectives[-3])
        assert change <= cfg.tol_outer

    def test_loosened_cg_visits_stop_at_the_warm_start_floor(self,
                                                             monkeypatch):
        # a visit on a sweep the forcing term loosened also stops at 1e-3
        # of its warm start's residual; a visit at the configured cg_tol
        # gets no floor, and a visit the floor stopped raises no warning
        original = lrdec.solver._solve_mode_masked_cg
        visits = []  # (cg_tol, the arguments after cfg) per visit

        def recorded(op, mask_stack, s_obs, alpha, x0, cfg, *rest):
            visits.append((cfg.cg_tol, rest))
            return original(op, mask_stack, s_obs, alpha, x0, cfg, *rest)

        monkeypatch.setattr(lrdec.solver, "_solve_mode_masked_cg", recorded)
        d, _, signal = make_problem((6, 5), (2, 2), m_count=2, rank=2,
                                    seed=72)
        mask = RNG(73).uniform(size=signal.shape) > 0.3
        cfg = SolverConfig(alpha=1.0, rank=2, outer_iters=300,
                           tol_outer=1e-12, seed=72)
        report = lrd_fit_masked(signal, mask, d, cfg)[2]
        assert report.converged and report.warnings == []
        loose = [rest for tol, rest in visits if tol > cfg.cg_tol]
        tight = [rest for tol, rest in visits if tol == cfg.cg_tol]
        assert loose and tight and len(loose) + len(tight) == len(visits)
        assert loose == [(1e-3,)] * len(loose)
        assert tight == [(0.0,)] * len(tight)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_masked_objective_never_rises(self, seed):
        # CG from the warm start lowers the visit's quadratic, at any
        # tolerance
        channels = 2 if seed == 3 else 1
        d, _, signal = make_problem((8, 7), (3, 3), m_count=2, rank=2,
                                    seed=90 + seed, channels=channels)
        mask = RNG(seed).uniform(size=signal.shape) > 0.3 + 0.1 * seed
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=8,
                           seed=seed)
        trace = lrd_fit_masked(signal, mask, d, cfg)[2].mode_objectives
        assert len(trace) == 8 * 2
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-12 * max(1.0, abs(a))


class TestExtrapolation:
    """The step between sweeps, x_k + beta (x_k - x_{k-1}), kept only when
    it does not raise the objective."""

    @staticmethod
    def fit(kind, seed=1, outer_iters=12):
        d, _, signal = make_problem((8, 7, 4), (3, 3, 2), m_count=2, rank=2,
                                    seed=seed)
        weight = {"lam": 0.01} if kind == "l1" else {"alpha": 1e-3}
        cfg = SolverConfig(reg="l1" if kind == "l1" else "l2", rank=2,
                           outer_iters=outer_iters, seed=seed, **weight)
        if kind == "masked":
            mask = RNG(seed).uniform(size=signal.shape) > 0.4
            return lrd_fit_masked(signal, mask, d, cfg)[2]
        return lrd_fit(signal, d, cfg)[1]

    @pytest.mark.parametrize("kind", ["l2", "l1", "masked"])
    def test_one_step_per_sweep_after_the_first(self, monkeypatch, kind):
        builds = []
        original = SpectralOperator.conv_taps

        def conv_taps(op):
            builds.append(op.mode)
            return original(op)

        monkeypatch.setattr(SpectralOperator, "conv_taps", conv_taps)
        report = self.fit(kind)
        steps = report.extrapolations
        assert len(steps) == report.sweeps - 1 == 11
        beta = 0.5
        for got, accepted in steps:
            assert got == beta
            beta = min(1.0, 1.1 * beta) if accepted else beta / 1.5
        rejected = sum(not accepted for _, accepted in steps)
        assert 0 < rejected < len(steps)
        # an independent count: one taps build per visit, and a rejected
        # step builds the first visit's operator again on the restored x_k
        assert len(builds) == len(report.mode_objectives) + rejected
        assert builds.count(0) == report.sweeps + rejected

    @pytest.mark.parametrize("kind", ["l2", "masked"])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_sweep_objectives_never_rise(self, kind, seed):
        report = self.fit(kind, seed=seed, outer_iters=20)
        assert {accepted for _, accepted in report.extrapolations} == {
            True, False}
        for trace in (report.objectives, report.mode_objectives):
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-12 * max(1.0, abs(a))
        assert not report.warnings

    def test_stalled_l2_fit_recovers(self):
        # this l2_cube-sized problem stalled near 30 dB without the step
        d, _, signal = make_problem((32, 32, 16), (5, 5, 5), 8, 3, seed=6)
        cfg = SolverConfig(reg="l2", alpha=1e-4, rank=3, outer_iters=30,
                           seed=6)
        activations, _ = lrd_fit(signal, d, cfg)
        recon = forward_model(d, activations)
        assert psnr(signal, recon, np.max(np.abs(signal))) >= 60.0



class TestStart:
    """The start: mode 0 from the seeded draws, every later mode from the
    leading eigenvectors of the matched-filter deconvolution's unfolding
    Grams, mixed with the draws."""

    @pytest.mark.parametrize("seed", [7, 23, 25])
    def test_stalled_panel_seeds_converge(self, seed):
        # from the random start these read 21.6, 27.5 and 28.6 dB after all
        # 30 sweeps, unconverged
        d, _, signal = make_problem((32, 32, 16), (5, 5, 5), 8, 3, seed=seed)
        cfg = SolverConfig(reg="l2", alpha=1e-4, rank=3, outer_iters=30,
                           seed=seed)
        activations, report = lrd_fit(signal, d, cfg)
        recon = forward_model(d, activations)
        assert psnr(signal, recon, np.max(np.abs(signal))) >= 60.0
        assert report.converged

    def test_matches_a_direct_deconvolution(self):
        # full complex spectra, dense activations and eigh per filter: the
        # reference for the half spectra, the scaling and the Grams
        d = unit_norm_dictionary((2, 3, 2), 3, seed=61, channels=2)
        d = Dictionary(d.filters * 7.0, channels=True)
        signal = RNG(62).standard_normal((6, 7, 5, 2))
        fit = lrdec.solver._Fit(signal, d, SolverConfig(rank=2, seed=63))
        stack = np.moveaxis(signal, -1, 0)
        shape, axes = stack.shape[1:], (-3, -2, -1)
        dhat = np.fft.fftn(d.filters, s=shape, axes=axes)
        power = np.sum(np.abs(dhat) ** 2, axis=(0, 1))
        khat = np.sum(dhat.conj() * np.fft.fftn(stack, axes=axes), axis=1)
        acts = np.fft.ifftn(khat / (power + 1e-3 * power.max()),
                            axes=axes).real
        rng = RNG(63)
        draws = [rng.uniform(-0.5, 0.5, size=(3, s, 2)) for s in shape]
        scale = (np.linalg.norm(stack) / 6) ** (1 / 3)
        np.testing.assert_array_equal(fit.factors[0], draws[0] * scale)
        for n in (1, 2):
            lead = (fit.factors[n] / scale - 0.3 * draws[n]) / np.sqrt(
                shape[n] / 12)
            for m in range(3):
                rows = unfold(acts[m], n)
                want = np.linalg.eigh(rows @ rows.T)[1][:, -2:]
                np.testing.assert_allclose(lead[m] @ lead[m].T,
                                           want @ want.T, atol=1e-9)

    def test_l1_fit_keeps_the_random_start(self, monkeypatch):
        # from the deconvolution start about 15% of l1_cube fits stay on a
        # plateau near 30 dB through their 12 sweeps
        d, _, signal = make_problem((8, 7, 4), (3, 3, 2), m_count=2, rank=2,
                                    seed=3)
        calls = []
        monkeypatch.setattr(lrdec.solver.np.fft, "irfftn",
                            lambda *a, **k: calls.append(a))
        fit = lrdec.solver._Fit(signal, d, SolverConfig(reg="l1", rank=2,
                                                        seed=5))
        rng = RNG(5)
        scale = (np.linalg.norm(signal) / 4) ** (1 / 3)
        for f, s in zip(fit.factors, signal.shape):
            np.testing.assert_array_equal(
                f, rng.uniform(-0.5, 0.5, size=(2, s, 2)) * scale)
        assert calls == []

    def test_the_seed_decides_the_random_part(self):
        d, _, signal = make_problem((8, 7, 4), (3, 3, 2), m_count=2, rank=2,
                                    seed=3)
        starts = [lrdec.solver._Fit(signal, d, SolverConfig(rank=2, seed=s))
                  .factors for s in (5, 5, 6)]
        for a, b, c in zip(*starts):
            np.testing.assert_array_equal(a, b)
            assert not np.allclose(a, c)

    @pytest.mark.parametrize("case", ["zero signal", "zero filter", "1-D",
                                      "I_n < R", "two channels"])
    def test_degenerate_inputs_start_finite(self, case):
        shape, support, channels, rank = (6, 5, 4), (2, 2, 2), 1, 2
        if case == "1-D":
            shape, support = (9,), (3,)
        elif case == "I_n < R":
            shape, rank = (6, 2, 5), 3
        elif case == "two channels":
            channels = 2
        d = unit_norm_dictionary(support, 3, seed=64, channels=channels)
        if case == "zero filter":
            d.filters[1] = 0.0
        signal = RNG(65).standard_normal(
            shape + ((channels,) if channels > 1 else ()))
        if case == "zero signal":
            signal[...] = 0.0
        cfg = SolverConfig(rank=rank, outer_iters=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = lrdec.solver._Fit(signal, d, cfg)
            lrd_fit(signal, d, cfg)
        assert [f.shape for f in fit.factors] == [(3, s, rank) for s in shape]
        assert all(np.all(np.isfinite(f)) for f in fit.factors)
        if case == "zero signal":
            assert not any(f.any() for f in fit.factors)


class TestRebalance:
    """The exact block step on the scaling orbit before each extrapolation
    of an l2 or masked fit."""

    def test_exact_block_step(self):
        d, _, signal = make_problem((8, 7, 4), (3, 3, 2), m_count=2, rank=2,
                                    seed=3)
        fit = lrdec.solver._Fit(signal, d, SolverConfig(alpha=1e-3, rank=2))
        rng = RNG(66)
        fit.factors = [rng.standard_normal(f.shape) * c
                       for f, c in zip(fit.factors, (10.0, 1.0, 0.1))]
        fit.factors[1][1, :, 0] = 0.0  # component (1, 0) has a zero column
        before = [f.copy() for f in fit.factors]

        def scores():
            op = SpectralOperator(d, fit.shape, fit.factors, 0)
            return fit.score(op, 0)[:2]

        data, reg = scores()
        drop = fit.rebalance()
        data_after, reg_after = scores()
        assert abs(data_after - data) <= 1e-12 * data
        assert reg_after < reg
        assert reg - reg_after == pytest.approx(drop, rel=1e-12)
        norms = np.sqrt([np.sum(f * f, axis=1) for f in fit.factors])
        live = np.ones((2, 2), dtype=bool)
        live[1, 0] = False
        np.testing.assert_allclose(norms[:, live], np.broadcast_to(
            norms[0, live], norms[:, live].shape), rtol=1e-12)
        for f, g in zip(fit.factors, before):
            np.testing.assert_array_equal(f[1, :, 0], g[1, :, 0])

    @pytest.mark.parametrize("kind", ["l2", "l1", "masked"])
    def test_runs_before_each_l2_extrapolation(self, monkeypatch, kind):
        calls = []
        original = lrdec.solver._Fit.rebalance

        def rebalance(fit):
            calls.append(len(fit.report.objectives))
            return original(fit)

        monkeypatch.setattr(lrdec.solver._Fit, "rebalance", rebalance)
        report = TestExtrapolation.fit(kind, outer_iters=5)
        want = [] if kind == "l1" else list(range(1, report.sweeps))
        assert calls == want
        assert report.objectives[-1] == report.mode_objectives[-1]

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
        sol, _, residual = _solve_mode_masked_cg(op, mask_stack, s_obs, alpha,
                                                 x0, cfg)
        assert residual is None
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

    def test_floor_stops_at_the_warm_starts_residual(self):
        # the floor is relative to W^H s - A x0, so a warm start near the
        # solution stops sooner, and a solve stopped there counts as met
        alpha = 1e-3
        d, _, signal = make_problem((8, 7), (3, 3), m_count=2, rank=2,
                                    seed=81)
        factors = factor_stacks((8, 7), 2, 2, seed=82)
        mask_stack = (RNG(83).uniform(size=(1, 8, 7)) > 0.3).astype(float)
        s_obs = signal[None] * mask_stack
        op = SpectralOperator(d, (8, 7), factors, 0)
        cfg = SolverConfig(alpha=alpha, cg_tol=1e-12, cg_max_iters=400)
        mask_rows, rhs = stack_to_rows(mask_stack, 0), _rhs(op, s_obs)

        def residual(x):
            return np.linalg.norm(rhs - _masked_normal(
                op, mask_rows, alpha, factors_to_rows(x)))

        x0 = _solve_mode_masked_cg(op, mask_stack, s_obs, alpha, factors[0],
                                   replace(cfg, cg_tol=1e-3))[0]
        runs = [_solve_mode_masked_cg(op, mask_stack, s_obs, alpha, x0, cfg,
                                      floor) for floor in (0.0, 1e-3)]
        (exact, full, none), (early, iterations, met) = runs
        assert none is None and met is None
        assert 0 < iterations < full
        assert residual(exact) <= 1e-12 * np.linalg.norm(rhs) \
            < residual(early) <= 1e-3 * residual(x0)

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

    def test_a_nan_residual_never_reads_as_met(self, monkeypatch):
        original = lrdec.solver._solve_mode_masked_cg

        def nan_residual(*args):
            return original(*args)[:2] + (float("nan"),)

        monkeypatch.setattr(lrdec.solver, "_solve_mode_masked_cg",
                            nan_residual)
        d, _, signal = make_problem((8, 7), (3, 3), m_count=2, rank=2,
                                    seed=79)
        mask = RNG(80).uniform(size=signal.shape) > 0.3
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=2)
        report = lrd_fit_masked(signal, mask, d, cfg)[2]
        assert len(report.warnings) == 4
        for warning in report.warnings:
            assert warning.endswith("relative residual nan > cg_tol 1.0e-08")


# the factor-independent arrays, with a key of each cache: the operator's,
# cached per (I_n, L_n), and the half-spectrum pair's DFT matrices, per I_n
CACHES = {convmodel._mode_maps: (7, 3), transform._dft_matrices: (7,)}


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


class TestInvariantCaches:
    @staticmethod
    def fit_bits(reg, shape, support, channels):
        d, _, signal = make_problem(shape, support, m_count=2, rank=2,
                                    seed=90, channels=channels)
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", lam=0.05,
                           alpha=1e-3, rank=2, outer_iters=3, tol_outer=1e-15)
        if reg == "masked":
            mask = RNG(91).uniform(size=signal.shape) > 0.3
            acts, _, report = lrd_fit_masked(signal, mask, d, cfg)
        else:
            acts, report = lrd_fit(signal, d, cfg)
        report.seconds = 0.0
        # repr writes every float of the report exactly
        return [f.tobytes() for a in acts for f in a.factors], repr(report)

    def test_caches_do_not_leak_between_problems(self):
        # mode 0 of the first problem has L = I, both fold lags (2L - 1 > I),
        # and I = 5 meets L = 3 in one and L = 4 in the other
        problems = [((6, 5), (6, 3), 1), ((5, 7, 4), (4, 2, 3), 2)]
        runs = [(reg, problem) for reg in ("l2", "l1", "masked")
                for problem in problems]
        clear_caches()
        interleaved = [self.fit_bits(reg, *problem) for reg, problem in runs]
        for (reg, problem), bits in zip(runs, interleaved):
            clear_caches()
            assert self.fit_bits(reg, *problem) == bits, (reg, problem)

    def test_cached_arrays_are_read_only_and_bounded(self):
        for cache, key in CACHES.items():
            assert cache.cache_info().maxsize is not None
            arrays = cache(*key)
            for a in arrays if isinstance(arrays, tuple) else (arrays,):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0

    def test_the_taps_read_the_operators_gather_rows(self, monkeypatch):
        # conv_taps contracts a mode's filter lags with the same cached
        # (i - tau) mod I rows that the forward map of that mode gathers
        read = {}
        original = convmodel._mode_maps

        def recorded(*key):
            read.setdefault(key, []).append(original(*key)[0])
            return original(*key)

        monkeypatch.setattr(convmodel, "_mode_maps", recorded)
        d, _, signal = make_problem((9, 7), (4, 3), m_count=2, rank=2,
                                    seed=47)
        factors = [RNG(48).normal(size=(2, s, 2)) for s in signal.shape]
        forward_rows = SpectralOperator(d, signal.shape, factors, 0)._lagged
        read.clear()
        SpectralOperator(d, signal.shape, factors, 1)
        # the mode-1 operator's taps read mode 0's rows, then its own maps
        assert len(read[(9, 4)]) == 1
        assert read[(9, 4)][0] is forward_rows

    @pytest.mark.parametrize("reg", ["l2", "l1", "masked"])
    def test_fits_build_each_invariant_once(self, reg, monkeypatch):
        # the solvers get (C, *shape) views of one mode-major copy per mode
        # of the signal and mask stacks, whose rows are views too
        name = {"l2": "solve_mode_l2", "l1": "solve_mode_admm",
                "masked": "_solve_mode_masked_cg"}[reg]
        original = getattr(lrdec.solver, name)
        handed = []

        def recorded(op, *args):
            stacks = args[:2] if reg == "masked" else args[:1]
            handed.append((op.mode, stacks))
            return original(op, *args)

        monkeypatch.setattr(lrdec.solver, name, recorded)
        d, _, signal = synthesize((5, 4, 5), (2, 2, 3), 2, 2, seed=45)
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", lam=0.05,
                           rank=2, outer_iters=3, admm_iters=20,
                           tol_outer=1e-15)
        clear_caches()
        if reg == "masked":
            mask = RNG(46).uniform(size=signal.shape) > 0.3
            report = lrd_fit_masked(signal, mask, d, cfg)[-1]
        else:
            report = lrd_fit(signal, d, cfg)[-1]
        assert report.sweeps == 3
        # three (I_n, L_n) keys, (5, 2), (4, 2) and (5, 3), and two I_n
        keys = {convmodel._mode_maps: 3, transform._dft_matrices: 2}
        for cache in CACHES:
            info = cache.cache_info()
            assert (info.misses, info.currsize) == (keys[cache],) * 2, cache
            assert info.hits > 0
        assert [mode for mode, _ in handed] == [0, 1, 2] * 3
        first = {}
        for mode, stacks in handed:
            for k, stack in enumerate(stacks):
                assert stack.shape == (1,) + signal.shape
                assert np.shares_memory(stack_to_rows(stack, mode), stack)
                copy = first.setdefault((mode, k), stack)
                assert np.shares_memory(stack, copy)


def _fit_and_exit(signal, d, cfg):
    # a forked child's l1 fit; it exits 0 only if it split its Gram stacks
    # on a worker of its own
    lrd_fit(signal, d, cfg)
    sys.exit(0 if os.getpid() in lrdec.solver._queues else 3)


_JOBS = lrdec.solver._jobs


def queued_jobs(monkeypatch, claimed=True):
    """Record every split's job as it is queued; with `claimed`, the caller
    then waits, for at most 30 s, until the worker has claimed the upper
    half, so that no half is taken back."""
    jobs = []

    def put(job):
        _JOBS().put(job)
        jobs.append(job)
        deadline = time.monotonic() + 30
        # a worker that has finished has released the claim and filled out
        while claimed and not (job[1].locked() or job[2]):
            assert time.monotonic() < deadline, "the worker never claimed"
            time.sleep(1e-4)

    monkeypatch.setattr(lrdec.solver, "_jobs",
                        lambda: types.SimpleNamespace(put=put))
    return jobs


class TestSplitEigh:
    """An l1 visit's eigh, split between the calling thread and the worker
    thread while the split's halves run side by side; a half the worker
    has not started is taken back by its caller."""

    def fit(self, monkeypatch, split, signal, d, cfg):
        # split every visit's stack, its upper half on the worker, or none
        if split:
            monkeypatch.setattr(lrdec.solver, "_HOLD", 0)
            monkeypatch.setattr(lrdec.solver, "_inline", 0)
            queued_jobs(monkeypatch)
        else:
            monkeypatch.setattr(lrdec.solver, "_inline", 10**9)
        acts, report = lrd_fit(signal, d, cfg)
        return [f for a in acts for f in a.factors], replace(report,
                                                             seconds=0.0)

    @pytest.mark.parametrize("shape, support, channels", [
        ((6, 5), (2, 2), 2),          # C = 2; 4 and 3 blocks
        ((5, 1, 4), (2, 1, 2), 1),    # mode 1 has 1 block, modes 0 and 2 3
        ((9, 2), (3, 2), 1),          # 5 blocks and 2
    ])
    def test_split_equals_inline_bit_for_bit(self, shape, support, channels,
                                             monkeypatch):
        d = unit_norm_dictionary(support, 2, seed=60, channels=channels)
        factors = factor_stacks(shape, 2, 2, seed=61)
        signal = forward_model(d, [KruskalTensor([f[m] for f in factors])
                                   for m in range(2)])
        cfg = SolverConfig(reg="l1", lam=0.02, rank=2, outer_iters=4)
        eigh, threads = np.linalg.eigh, []

        def recorded(a, *args, **kwargs):
            threads.append(threading.current_thread().name)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(lrdec.solver.np.linalg, "eigh", recorded)
        inline = self.fit(monkeypatch, False, signal, d, cfg)
        assert "lrdec-eigh" not in threads
        split = self.fit(monkeypatch, True, signal, d, cfg)
        assert "lrdec-eigh" in threads
        assert inline[1] == split[1]
        assert len(inline[0]) == len(split[0])
        for a, b in zip(*(fit[0] for fit in (inline, split))):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("failing", ["lrdec-eigh", "caller"])
    def test_a_failing_half_asks_to_rescale_and_the_next_fit_runs(
            self, failing, monkeypatch):
        # a LinAlgError from either half reaches the visit's handler; the
        # worker's half is waited for and the worker keeps serving
        d, _, signal = synthesize((6, 5), (2, 2), 2, 2, seed=62)
        cfg = SolverConfig(reg="l1", lam=0.02, rank=2, outer_iters=3)
        eigh, finished = np.linalg.eigh, []

        def fails(a, *args, **kwargs):
            worker = threading.current_thread().name == "lrdec-eigh"
            if worker == (failing == "lrdec-eigh"):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            if worker:  # a slow half, done long after the caller's raised
                time.sleep(0.05)
            finished.append(worker)
            return eigh(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(lrdec.solver.np.linalg, "eigh", fails)
            with pytest.raises(ValueError, match=(
                    "^the ADMM's eigendecomposition failed at sweep 0 mode 0: "
                    "rescale the signal$")):
                self.fit(m, True, signal, d, cfg)
            # the first visit's other half ran to its end before the raise
            assert finished == [failing == "caller"]
        split = self.fit(monkeypatch, True, signal, d, cfg)
        inline = self.fit(monkeypatch, False, signal, d, cfg)
        assert split[1] == inline[1]
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(split[0], inline[0]))

    @pytest.mark.parametrize("cpu, held", [(0.8, False), (0.6, True)])
    def test_a_split_counts_both_halves_cpu_against_its_wall(
            self, cpu, held, monkeypatch):
        # every reading of a thread's CPU clock advances it by `cpu` and
        # every reading of the wall clock by 1, so the halves take 2 * cpu
        # of CPU in a wall time of 1, which moves a running overlap of 1.4
        # by a quarter of 2 * cpu - 1.4: under 1.4 the next visits go inline
        wall, spent = itertools.count(), {}

        def thread_time():
            key = threading.get_ident()
            spent[key] = spent.get(key, 0.0) + cpu
            return spent[key]

        clock = types.SimpleNamespace(perf_counter=lambda: float(next(wall)),
                                      thread_time=thread_time)
        monkeypatch.setattr(lrdec.solver, "time", clock)
        monkeypatch.setattr(lrdec.solver, "_inline", 0)
        monkeypatch.setattr(lrdec.solver, "_overlap", 1.4)
        queued_jobs(monkeypatch)
        a = RNG(66).standard_normal((3, 4, 4))
        blocks = a @ a.swapaxes(1, 2)
        w, v = lrdec.solver._eigh(blocks)
        assert len(spent) == 2  # the caller's and the worker's halves
        assert lrdec.solver._overlap == pytest.approx(1.4 + (2 * cpu - 1.4)
                                                      / 4)
        assert lrdec.solver._inline == (lrdec.solver._HOLD if held else 0)
        want = np.linalg.eigh(blocks)
        assert w.tobytes() == want[0].tobytes()
        assert v.tobytes() == want[1].tobytes()

    def test_a_half_the_worker_has_not_started_is_taken_back(self,
                                                             monkeypatch):
        # a split of 3x3 blocks holds the worker on its upper half until
        # `free` is set, so the next split's caller finds its upper half
        # unclaimed and decomposes it itself; a caller that waited for the
        # worker would time out here.  That split ran serially, so the
        # gate holds
        claimed, free, eigh = threading.Event(), threading.Event(), \
            np.linalg.eigh

        def held(a, *args, **kwargs):
            if a.shape[-1] == 3:
                if threading.current_thread().name == "lrdec-eigh":
                    claimed.set()
                    free.wait(30)
                else:  # the holding split's caller lets the worker claim
                    claimed.wait(30)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(lrdec.solver.np.linalg, "eigh", held)
        monkeypatch.setattr(lrdec.solver, "_inline", 0)
        monkeypatch.setattr(lrdec.solver, "_overlap", lrdec.solver._OVERLAP)
        a, b = RNG(68).standard_normal((4, 3, 3)), RNG(69).standard_normal(
            (5, 4, 4))
        blocks, got = b @ b.swapaxes(1, 2), []
        holder = threading.Thread(
            target=lambda: lrdec.solver._eigh(a @ a.swapaxes(1, 2)),
            daemon=True)
        caller = threading.Thread(
            target=lambda: got.append(lrdec.solver._eigh(blocks)),
            daemon=True)
        holder.start()
        try:
            assert claimed.wait(30), "the worker never claimed the holder"
            caller.start()
            caller.join(timeout=30)
            assert not caller.is_alive(), "the caller waited for the worker"
            assert lrdec.solver._inline == lrdec.solver._HOLD
        finally:
            free.set()
            holder.join(timeout=30)
        assert not holder.is_alive()
        w, v = got[0]
        want = eigh(blocks)
        assert w.tobytes() == want[0].tobytes()
        assert v.tobytes() == want[1].tobytes()

    def test_a_split_that_ran_serially_holds_the_next_visits(self,
                                                             monkeypatch):
        # every split holds: the first visit and then one in 1 + _HOLD split
        d, _, signal = synthesize((6, 5), (2, 2), 2, 2, seed=65)
        cfg = SolverConfig(reg="l1", lam=0.02, rank=2, outer_iters=10,
                           tol_outer=1e-15)
        split_eigh, visits = lrdec.solver._eigh, []
        jobs = queued_jobs(monkeypatch, claimed=False)

        def visit(blocks):
            queued = len(jobs)
            result = split_eigh(blocks)
            visits.append(len(jobs) > queued)
            return result

        monkeypatch.setattr(lrdec.solver, "_eigh", visit)
        monkeypatch.setattr(lrdec.solver, "_inline", 0)
        monkeypatch.setattr(lrdec.solver, "_OVERLAP", float("inf"))
        _, report = lrd_fit(signal, d, cfg)
        assert report.sweeps == 10 and len(visits) >= 20
        period = 1 + lrdec.solver._HOLD
        assert visits == [k % period == 0 for k in range(len(visits))]

    def test_a_forked_child_fits_on_a_worker_of_its_own(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        d, _, signal = synthesize((6, 5), (2, 2), 2, 2, seed=63)
        cfg = SolverConfig(reg="l1", lam=0.02, rank=2, outer_iters=3)
        self.fit(monkeypatch, True, signal, d, cfg)  # the parent's worker
        assert os.getpid() in lrdec.solver._queues
        child = multiprocessing.get_context("fork").Process(
            target=_fit_and_exit, args=(signal, d, cfg))
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0

    def test_concurrent_fits_share_the_worker(self, monkeypatch):
        # more calling threads than cores, switching often: every fit is
        # the inline fit bit for bit, so no half reached another caller
        d, _, signal = synthesize((9, 8), (2, 2), 2, 2, seed=64)
        cfgs = [SolverConfig(reg="l1", lam=0.02, rank=2, outer_iters=3,
                             seed=s) for s in range(6)]
        want = [self.fit(monkeypatch, False, signal, d, c) for c in cfgs]
        got = [None] * len(cfgs)

        def run(k):
            acts, report = lrd_fit(signal, d, cfgs[k])
            got[k] = ([f for a in acts for f in a.factors],
                      replace(report, seconds=0.0))

        monkeypatch.setattr(lrdec.solver, "_HOLD", 0)
        monkeypatch.setattr(lrdec.solver, "_inline", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(len(cfgs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for (wf, wr), (gf, gr) in zip(want, got):
            assert wr == gr
            assert all(a.tobytes() == b.tobytes() for a, b in zip(wf, gf))

    def test_import_and_l2_and_masked_fits_start_no_thread(self):
        # the worker's queue module loads on the first split, not at import
        code = "\n".join([
            "import json, sys, threading",
            "import numpy as np",
            "from lrdec import SolverConfig, lrd_fit, lrd_fit_masked, "
            "make_problem",
            "loaded = [m for m in ('queue', 'concurrent') if m in sys.modules]",
            "d, _, s = make_problem((8, 7), (3, 3), 2, 2, seed=0)",
            "mask = np.random.default_rng(1).uniform(size=s.shape) > 0.3",
            "cfg = SolverConfig(rank=2, outer_iters=2)",
            "lrd_fit(s, d, cfg)",
            "lrd_fit_masked(s, mask, d, cfg)",
            "print(json.dumps([loaded, threading.active_count()]))",
        ])
        src = str(Path(lrdec.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout.splitlines()[-1]) == [[], 1]

    def test_an_l1_fit_with_the_split_forced_runs_in_an_atexit_handler(self):
        # the worker is the module's own daemon thread, which an atexit
        # handler can still start; the split fit there, the worker's first,
        # equals the inline fit made before exit bit for bit
        code = "\n".join([
            "import atexit, os",
            "import lrdec.solver",
            "from lrdec import SolverConfig, lrd_fit, make_problem",
            "def fit(hold, inline):",
            "    lrdec.solver._HOLD, lrdec.solver._inline = hold, inline",
            "    d, _, s = make_problem((9, 8), (3, 3), 2, 2, seed=0)",
            "    cfg = SolverConfig(reg='l1', lam=0.02, rank=2, outer_iters=3)",
            "    acts, _ = lrd_fit(s, d, cfg)",
            "    return b''.join(f.tobytes() for a in acts for f in a.factors)",
            "def at_exit():",
            "    split = fit(0, 0)",
            "    print(split == inline, os.getpid() in lrdec.solver._queues)",
            "inline = fit(8, 10**9)",
            "assert not lrdec.solver._queues",
            "atexit.register(at_exit)",
        ])
        src = str(Path(lrdec.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120)
        # an exception in an atexit handler is printed, and the exit code
        # stays 0: only the handler's own output shows that it ran
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["True", "True"], child.stderr
