import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import lrdec.solver
from lrdec.convmodel import (Dictionary, SpectralOperator, factor_to_vec,
                             forward_model, signal_to_vec, vec_to_factor,
                             vec_to_signal)
from lrdec.solver import SolverConfig, lrd_fit, lrd_fit_masked, _rhs
from lrdec.synth import make_activations, make_filters
from lrdec.tensor import KruskalTensor, unfold
from lrdec.transform import dft_factor, dft_nd, rdft_factor

from oracles import (circular_convolve_by_sums, gram_blocks_by_pairs,
                     kruskal_by_outer_sums, materialize_w, mirror_half_blocks,
                     vec_colmajor)

RNG = np.random.default_rng


def factor_stacks(shape, m_count, rank, seed):
    rng = RNG(seed)
    return [rng.standard_normal((m_count, s, rank)) for s in shape]


def random_dictionary(support, m_count, seed, channels=1):
    rng = RNG(seed)
    if channels == 1:
        return Dictionary(rng.standard_normal((m_count,) + tuple(support)))
    return Dictionary(rng.standard_normal((m_count, channels) + tuple(support)),
                      channels=True)


def count_nd_transforms(monkeypatch, calls, key="nd_transforms",
                        names=("fftn", "ifftn", "rfftn", "irfftn")):
    """Count calls to numpy's N-D transforms `names` in ``calls[key]``."""
    def counted(original):
        def transform(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return transform

    for name in names:
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))


def to_kruskal(factors):
    m_count = factors[0].shape[0]
    return [KruskalTensor([f[m] for f in factors])
            for m in range(m_count)]


class TestDictionary:
    def test_channel_layout(self):
        d = random_dictionary((2, 2), 3, seed=5, channels=2)
        assert d.num_filters == 3
        assert d.num_channels == 2
        assert d.support == (2, 2)

    def test_complex_filters_rejected(self):
        # not cast to real: the imaginary part would be dropped
        with pytest.raises(ValueError, match=r"^filters must be real, got "
                                             r"dtype complex128$"):
            Dictionary(np.ones((2, 2, 2)) * (1 + 1j))

    def test_support_validation(self):
        d = random_dictionary((3, 3), 2, seed=6)
        d.check_signal_shape((6, 6))
        with pytest.raises(ValueError):
            d.check_signal_shape((2, 6))
        with pytest.raises(ValueError):
            d.check_signal_shape((3, 3))  # nowhere strictly smaller

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_taps(self, bad):
        filters = random_dictionary((3, 3), 2, seed=7).filters.copy()
        filters[1, 0, 2, 1] = bad
        with pytest.raises(ValueError, match="filters contain non-finite"):
            Dictionary(filters, channels=True)


class TestForwardModel:
    def test_single_delta_filter(self):
        factors = factor_stacks((4, 3), 1, 2, seed=7)
        delta = np.zeros((1, 1, 1))
        delta[0, 0, 0] = 1.0
        d = Dictionary(delta.reshape(1, 1, 1))
        out = forward_model(d, to_kruskal(factors))
        ref = kruskal_by_outer_sums([factors[0][0], factors[1][0]])
        assert np.max(np.abs(out - ref)) < 1e-11

    def test_zero_second_activation(self):
        d = random_dictionary((2, 2), 2, seed=8)
        factors = factor_stacks((5, 4), 2, 2, seed=9)
        zeroed = [f.copy() for f in factors]
        for f in zeroed:
            f[1] = 0.0
        single = Dictionary(d.filters[:1, 0])
        lhs = forward_model(d, to_kruskal(zeroed))
        rhs = forward_model(single, [to_kruskal(factors)[0]])
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_matches_composed_oracle(self):
        d = random_dictionary((2, 2, 2), 2, seed=10)
        factors = factor_stacks((5, 5, 3), 2, 2, seed=11)
        out = forward_model(d, to_kruskal(factors))
        ref = np.zeros((5, 5, 3))
        for m in range(2):
            k_m = kruskal_by_outer_sums([f[m] for f in factors])
            ref += circular_convolve_by_sums(d.filters[m, 0], k_m)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_multichannel_stacks_last_axis(self):
        d = random_dictionary((2, 2), 2, seed=12, channels=3)
        factors = factor_stacks((4, 4), 2, 2, seed=13)
        out = forward_model(d, to_kruskal(factors))
        assert out.shape == (4, 4, 3)
        for c in range(3):
            single = Dictionary(d.filters[:, c])
            ref = forward_model(single, to_kruskal(factors))
            assert np.max(np.abs(out[..., c] - ref)) < 1e-11

    def test_shape_mismatch(self):
        d = random_dictionary((2, 2), 2, seed=14)
        factors = factor_stacks((4, 4), 2, 2, seed=15)
        ks = to_kruskal(factors)
        ks[1] = KruskalTensor([np.zeros((5, 2)), np.zeros((4, 2))])
        with pytest.raises(ValueError):
            forward_model(d, ks)

    # orders 1-4, C in {1, 3}, odd and even last modes (irfftn needs s= on
    # odd ones), a support equal to the signal in one mode, M = 1 and R = 1
    @pytest.mark.parametrize("shape,support,m_count,rank,channels", [
        ((7,), (3,), 1, 1, 1),
        ((6,), (2,), 3, 2, 3),
        ((5, 4), (5, 2), 2, 2, 1),
        ((4, 5), (2, 3), 1, 1, 3),
        ((4, 3, 5), (2, 3, 2), 2, 1, 1),
        ((3, 4, 4), (2, 2, 2), 1, 2, 3),
        ((3, 2, 3, 4), (2, 2, 1, 2), 2, 2, 1),
        ((2, 3, 2, 3), (1, 2, 2, 2), 1, 1, 3),
    ])
    def test_grid_matches_oracle(self, shape, support, m_count, rank,
                                 channels):
        d = random_dictionary(support, m_count, seed=len(shape),
                              channels=channels)
        factors = factor_stacks(shape, m_count, rank, seed=10 + len(shape))
        out = forward_model(d, to_kruskal(factors))
        assert out.shape == shape + ((channels,) if channels > 1 else ())
        out = out.reshape(shape + (channels,))
        for c in range(channels):
            ref = sum(circular_convolve_by_sums(
                d.filters[m, c], kruskal_by_outer_sums([f[m] for f in factors]))
                for m in range(m_count))
            assert np.max(np.abs(out[..., c] - ref)) < 1e-10

    def test_complex_factors_rejected(self):
        # rfft would drop their imaginary part without a word
        d = random_dictionary((2, 2), 2, seed=16)
        acts = [[f[m] for f in factor_stacks((4, 5), 2, 2, seed=17)]
                for m in range(2)]
        acts[1][0] = acts[1][0].astype(complex)
        with pytest.raises(ValueError, match="activation 1 has complex"):
            forward_model(d, acts)

    @pytest.mark.parametrize("factors,message", [
        pytest.param([np.ones(4), np.ones((4, 2))],
                     "activation 0 factor 0 is not a matrix", id="vector"),
        pytest.param([], "activation 0 has no factors", id="empty")])
    def test_malformed_factor_list_rejected(self, factors, message):
        # both used to raise IndexError
        with pytest.raises(ValueError, match=message):
            forward_model(Dictionary(np.ones((1, 2, 2))), [factors])

    def test_synthesis_builds_no_dense_activations(self):
        # an (M, *shape) complex stack on the cube is 2 MiB; per filter the
        # synthesis holds a few half spectra
        d = make_filters((5, 5, 5), 8, seed=0)
        acts = make_activations((32, 32, 16), 8, 3, seed=1)
        tracemalloc.start()
        try:
            forward_model(d, acts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 32 * 32 * 16 * 16


def tiny_operator(shape=(3, 2), m_count=1, rank=1, seed=16, channels=1,
                  support=None, mode=0):
    if support is None:
        support = tuple(min(2, s) for s in shape)
    d = random_dictionary(support, m_count, seed=seed, channels=channels)
    factors = factor_stacks(shape, m_count, rank, seed=seed + 1)
    op = SpectralOperator(d, shape, factors, mode)
    w = materialize_w(d.filters, shape, factors, mode)
    return op, w, d, factors


class TestSpectralOperator:
    def test_zero_maps_to_zero(self):
        op, _, _, _ = tiny_operator()
        assert np.max(np.abs(op.apply(np.zeros(op.factor_size)))) == 0.0
        assert np.max(np.abs(op.apply_adjoint(np.zeros(op.signal_size)))) == 0.0

    @pytest.mark.parametrize("shape,m_count,rank,channels,mode", [
        ((3, 2), 1, 1, 1, 0),
        ((3, 2), 2, 2, 1, 1),
        ((2, 3, 2), 2, 2, 1, 1),
        ((3, 4), 2, 2, 3, 0),
        ((5,), 2, 2, 1, 0),
        ((3, 4, 2), 2, 2, 2, 2),
        # order 4, C = 2, support (2, 2, 2, 2) equal to mode 1: only order
        # 4 and above reach the taps' middle contraction steps
        ((3, 2, 4, 3), 2, 2, 2, 0),
        ((3, 2, 4, 3), 2, 2, 2, 1),
        ((3, 2, 4, 3), 2, 2, 2, 2),
        ((3, 2, 4, 3), 2, 2, 2, 3),
    ])
    def test_apply_matches_materialized(self, shape, m_count, rank, channels,
                                        mode):
        op, w, _, _ = tiny_operator(shape, m_count, rank, seed=17,
                                    channels=channels, mode=mode)
        rng = RNG(18)
        x = rng.standard_normal(op.factor_size) + \
            1j * rng.standard_normal(op.factor_size)
        assert np.max(np.abs(op.apply(x) - w @ x)) < 1e-12 * max(
            1.0, np.max(np.abs(w @ x)))

    def test_adjoint_matches_materialized(self):
        op, w, _, _ = tiny_operator((3, 2), 2, 2, seed=19)
        rng = RNG(20)
        y = rng.standard_normal(op.signal_size) + \
            1j * rng.standard_normal(op.signal_size)
        lhs = op.apply_adjoint(y)
        rhs = w.conj().T @ y
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("shape,m_count,rank,channels", [
        ((4, 3), 2, 2, 1),
        ((3, 4, 2), 3, 2, 1),
        ((4, 4), 2, 3, 2),
        ((3, 4, 2), 2, 2, 2),
    ])
    def test_adjoint_identity(self, shape, m_count, rank, channels):
        op, _, _, _ = tiny_operator(shape, m_count, rank, seed=21,
                                    channels=channels)
        rng = RNG(22)
        x = rng.standard_normal(op.factor_size) + \
            1j * rng.standard_normal(op.factor_size)
        y = rng.standard_normal(op.signal_size) + \
            1j * rng.standard_normal(op.signal_size)
        lhs = np.vdot(y, op.apply(x))
        rhs = np.vdot(op.apply_adjoint(y), x)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("shape,support,m_count,rank,channels,mode", [
        ((5, 4), (5, 2), 2, 2, 1, 0),  # L_n = I_n
        ((6, 5), (4, 3), 2, 3, 1, 0),  # folded lags, 2 L_n - 1 > I_n
        ((4, 6), (2, 5), 2, 2, 2, 1),  # C = 2, folded lags
        ((7,), (4,), 3, 2, 1, 0),  # N = 1
        ((3, 2, 4, 3), (2, 2, 3, 2), 2, 2, 2, 2),  # N = 4, C = 2
        # M*R = 1 with L_n >= 8: one column, which a strided reduction
        # over the lags would add pairwise rather than in tau order
        ((20,), (9,), 1, 1, 1, 0),
        ((12, 9), (10, 3), 1, 1, 1, 0),
    ])
    def test_adjoint_adds_the_lags_in_tau_order(self, shape, support,
                                                m_count, rank, channels,
                                                mode):
        d = random_dictionary(support, m_count, seed=32, channels=channels)
        op = SpectralOperator(d, shape, factor_stacks(shape, m_count, rank,
                                                      seed=33), mode)
        length, count = shape[mode], support[mode]
        z = RNG(34).standard_normal((length, op.signal_size // length))
        w = (z @ op.conv_taps().T).reshape(length, count, m_count * rank)
        # adjoint row i = w[i, 0] + w[(i+1) % I, 1] + ..., added left to right
        expected = w[:, 0].copy()
        for tau in range(1, count):
            expected += np.roll(w[:, tau], -tau, axis=0)
        assert np.array_equal(op.adjoint(z), expected)

    def test_consistency_with_spatial_forward(self):
        shape = (4, 3, 2)
        d = random_dictionary((2, 2, 1), 2, seed=23)
        factors = factor_stacks(shape, 2, 2, seed=24)
        for mode in range(3):
            op = SpectralOperator(d, shape, factors, mode)
            xhat = dft_factor(factors[mode], axis=1)
            lhs = op.apply(factor_to_vec(xhat))
            spatial = forward_model(d, to_kruskal(factors))
            rhs = signal_to_vec(unfold(dft_nd(spatial), mode)[None])
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(
                1.0, np.max(np.abs(rhs)))

    def test_multichannel_consistency_with_spatial_forward(self):
        shape = (4, 3)
        d = random_dictionary((2, 2), 2, seed=25, channels=2)
        factors = factor_stacks(shape, 2, 2, seed=26)
        op = SpectralOperator(d, shape, factors, 0)
        xhat = dft_factor(factors[0], axis=1)
        lhs = op.apply(factor_to_vec(xhat))
        spatial = forward_model(d, to_kruskal(factors))
        stacked = np.stack([unfold(dft_nd(spatial[..., c]), 0)
                            for c in range(2)])
        rhs = signal_to_vec(stacked)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_rejects_factor_blocks_that_are_not_stacks(self):
        # per-filter (I_k, R) matrices instead of (M, I_k, R) stacks
        d = Dictionary(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match=r"\(M, I_0, R\)"):
            SpectralOperator(d, (4, 3), [np.ones((4, 2)), np.ones((3, 2))], 0)

    def test_vector_api_runs_on_the_taps(self, monkeypatch):
        calls = {"filter_spectra": 0, "taps_built": 0}
        original_taps = SpectralOperator.conv_taps

        def conv_taps(op):
            calls["taps_built"] += 1
            return original_taps(op)

        # filter spectra are real-input N-D transforms (forward_model's);
        # the vector API transforms complex spectra only
        count_nd_transforms(monkeypatch, calls, "filter_spectra",
                            ("rfftn", "irfftn"))
        monkeypatch.setattr(SpectralOperator, "conv_taps", conv_taps)
        op, _, _, factors = tiny_operator((4, 3, 2), 2, 2, seed=29,
                                          channels=2, mode=1)
        rng = RNG(30)
        signal = rng.standard_normal((2, 4, 3, 2))
        # the spectrum of a real signal, as the gradient needs
        shat = signal_to_vec(np.stack([unfold(dft_nd(c), 1) for c in signal]))
        op.apply(rng.standard_normal(op.factor_size))
        op.apply_adjoint(shat)
        lrdec.solver.solve_mode_l2(op, signal, 0.5)
        lrdec.solver.data_term_gradient(op, shat, factors[1])
        lrdec.solver.solve_mode_admm(
            op, signal, SolverConfig(reg="l1", admm_iters=3))
        assert calls == {"filter_spectra": 0, "taps_built": 1}

    def test_taps_are_written_in_place(self):
        # the cube's mode-2 taps are (5*8*3, 1024) doubles; the contraction
        # writes them through a view, so it holds no full-size intermediate
        # (the peak was 2.03 times the taps' bytes when it copied one)
        shape = (32, 32, 16)
        op = SpectralOperator(make_filters((5, 5, 5), 8, seed=0), shape,
                              factor_stacks(shape, 8, 3, seed=31), 2)
        tracemalloc.start()
        try:
            taps = op.conv_taps()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert taps.shape == (5 * 8 * 3, 32 * 32)
        assert peak < 1.5 * taps.nbytes

    def test_vec_round_trips(self):
        rng = RNG(27)
        x = rng.standard_normal((3, 4, 2))
        assert np.array_equal(vec_to_factor(factor_to_vec(x), 3, 4, 2), x)
        y = rng.standard_normal((2, 4, 5))
        assert np.array_equal(vec_to_signal(signal_to_vec(y), 2, 4, 5), y)

    def test_vec_matches_colmajor_convention(self):
        # the factor-side vector must stack column-major vec(X_m) over m
        rng = RNG(28)
        x = rng.standard_normal((2, 3, 2))
        expected = np.concatenate([vec_colmajor(x[0]), vec_colmajor(x[1])])
        assert np.array_equal(factor_to_vec(x), expected)


def normal_blocks(op, rho):
    """The full ``(I_n, M*R, M*R)`` stack ``G + rho I`` that the solvers'
    half stacks stand for."""
    half = op.gram_blocks() + rho * np.eye(op.num_filters * op.rank)
    return mirror_half_blocks(half, op.mode_length)


class TestNormalBlocks:
    def test_blocks_match_materialized_normal_matrix(self):
        for channels in (1, 2):
            op, w, _, _ = tiny_operator((3, 2), 2, 2, seed=29,
                                        channels=channels)
            rho = 0.7
            blocks = normal_blocks(op, rho)
            dense = w.conj().T @ w + rho * np.eye(op.factor_size)
            # permute the vec ordering (m, r, i) into frequency-major blocks
            m_count, rank, i_n = op.num_filters, op.rank, op.mode_length
            perm = np.empty(op.factor_size, dtype=int)
            for v in range(op.factor_size):
                m, rem = divmod(v, rank * i_n)
                r, i = divmod(rem, i_n)
                perm[v] = i * m_count * rank + m * rank + r
            permuted = np.empty_like(dense)
            for a in range(op.factor_size):
                for b in range(op.factor_size):
                    permuted[perm[a], perm[b]] = dense[a, b]
            assembled = scipy.linalg.block_diag(*blocks)
            assert np.max(np.abs(assembled - permuted)) < 1e-11 * max(
                1.0, np.max(np.abs(dense)))

    def test_blocks_hermitian_positive_definite(self):
        op, _, _, _ = tiny_operator((4, 3), 2, 2, seed=30)
        rho = 0.3
        blocks = normal_blocks(op, rho)
        for blk in blocks:
            assert np.max(np.abs(blk - blk.conj().T)) < 1e-12 * max(
                1.0, np.max(np.abs(blk)))
            eigs = np.linalg.eigvalsh(blk)
            assert eigs.min() >= rho * (1.0 - 1e-9)

    def test_scalar_case_direct_sum(self):
        op, _, d, factors = tiny_operator((4, 3), 1, 1, seed=31)
        rho = 0.5
        blocks = normal_blocks(op, rho)
        dhat = unfold(np.fft.fftn(d.filters[0, 0], s=(4, 3), axes=(0, 1)), 0)
        qhat = dft_factor(factors[1][0])[:, 0]
        for i in range(4):
            direct = np.sum(np.abs(dhat[i]) ** 2 * np.abs(qhat) ** 2) + rho
            assert abs(blocks[i, 0, 0] - direct) < 1e-11 * max(1.0, direct)


HALF_SPECTRUM_CASES = [
    # odd I_n
    pytest.param((5, 3), 2, 2, 1, 0, None, id="shape0-2-2-1-0"),
    # even I_n
    pytest.param((6, 3), 3, 2, 1, 0, None, id="shape1-3-2-1-0"),
    # even I_n of a middle mode
    pytest.param((3, 4, 2), 2, 2, 1, 1, None, id="shape2-2-2-1-1"),
    # C = 2, odd I_n
    pytest.param((4, 5), 2, 3, 2, 1, None, id="shape3-2-3-2-1"),
    # C = 2, even I_n
    pytest.param((4, 4), 2, 2, 2, 0, None, id="shape4-2-2-2-0"),
    # single mode, odd I_n
    pytest.param((7,), 2, 2, 1, 0, None, id="shape5-2-2-1-0"),
    # single mode, even I_n
    pytest.param((6,), 3, 2, 1, 0, None, id="shape6-3-2-1-0"),
    # lags folded mod I_k where 2 L_k - 1 > I_k on both modes
    pytest.param((7, 6), 2, 2, 1, 0, (6, 5), id="fold-7x6"),
    # full support on the folded mode, C = 2, even I_n
    pytest.param((12, 10), 2, 2, 2, 1, (12, 3), id="fold-12x10-c2"),
    # only the visited mode folds its tap lags: 2 L_n - 1 = 11 > I_n = 7
    pytest.param((7, 6), 2, 3, 1, 0, (6, 2), id="fold-own-7x6"),
    # the visited mode at full support, L_n = I_n, C = 2
    pytest.param((12, 10), 2, 2, 2, 0, (12, 3), id="fold-own-12x10-c2"),
    # a middle mode with one folded (mode 2) and one exact (mode 0) lag set
    pytest.param((9, 8, 5), 2, 3, 1, 1, (4, 6, 4), id="fold-9x8x5"),
    # order 4, C = 2, every mode; the support (2, 2, 2, 2) equals mode 1
    *(pytest.param((3, 2, 4, 3), 2, 2, 2, mode, None, id=f"order4-{mode}")
      for mode in range(4)),
]


class TestHalfSpectrum:
    @pytest.mark.parametrize("shape,m_count,rank,channels,mode,support",
                             HALF_SPECTRUM_CASES)
    def test_gram_blocks_match_pair_oracle(self, shape, m_count, rank,
                                           channels, mode, support):
        op, _, d, factors = tiny_operator(shape, m_count, rank, seed=40,
                                          channels=channels, support=support,
                                          mode=mode)
        oracle = gram_blocks_by_pairs(d.filters, shape, factors, mode)
        half = op.gram_blocks()
        assert half.shape == (shape[mode] // 2 + 1, m_count * rank,
                              m_count * rank)
        assert np.max(np.abs(half - oracle[:len(half)])) <= 1e-12 * max(
            1.0, np.max(np.abs(oracle)))

    @pytest.mark.parametrize("shape,m_count,rank,channels,mode,support",
                             HALF_SPECTRUM_CASES)
    def test_taps_rhs_matches_spectral_adjoint(self, shape, m_count, rank,
                                               channels, mode, support):
        op, _, d, factors = tiny_operator(shape, m_count, rank, seed=53,
                                          channels=channels, support=support,
                                          mode=mode)
        half = shape[mode] // 2 + 1
        signal = RNG(54).standard_normal((channels,) + shape)
        shat = np.stack([unfold(dft_nd(s), mode) for s in signal])
        want = vec_to_factor(op.apply_adjoint(signal_to_vec(shat)), m_count,
                             shape[mode], rank)[:, :half].transpose(
            1, 0, 2).reshape(half, -1)
        # the right-hand side the fits build on the taps, from the signal,
        # as (I_n//2 + 1, M*R) half-spectrum rows
        got = rdft_factor(_rhs(op, signal))
        assert got.shape == (half, m_count * rank)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(
            1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("length", [5, 6])
    def test_normal_blocks_mirror_the_half(self, length):
        # the half stack stands for every frequency: the pair oracle's
        # blocks at I_n - i are the conjugates of those at i
        op, _, d, factors = tiny_operator((length, 3), 2, 2, seed=41)
        full = gram_blocks_by_pairs(d.filters, (length, 3), factors, 0)
        got = normal_blocks(op, 0.25)
        assert got.shape == full.shape
        want = full + 0.25 * np.eye(4)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(
            1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("reg", ["l2", "l1", "masked"])
    def test_fit_makes_no_filter_spectra(self, monkeypatch, reg):
        calls = {"spectral": 0, "nd_transforms": 0, "taps_built": 0}

        def spectral(self, vec):
            calls["spectral"] += 1

        original = SpectralOperator.conv_taps

        def conv_taps(op):
            calls["taps_built"] += 1
            return original(op)

        # every fit runs on the mode-n taps, built once per visit and once
        # more for each rejected extrapolation, which rebuilds the first
        # visit's operator on the restored factors
        monkeypatch.setattr(SpectralOperator, "apply", spectral)
        monkeypatch.setattr(SpectralOperator, "apply_adjoint", spectral)
        monkeypatch.setattr(SpectralOperator, "conv_taps", conv_taps)
        count_nd_transforms(monkeypatch, calls)
        d = random_dictionary((2, 2, 2), 3, seed=45, channels=2)
        signal = RNG(46).standard_normal((5, 4, 3, 2))
        if reg == "masked":
            cfg = SolverConfig(reg="l2", rank=2, outer_iters=3)
            mask = RNG(47).random(signal.shape) < 0.7
            _, _, report = lrd_fit_masked(signal, mask, d, cfg)
        else:
            cfg = SolverConfig(reg=reg, rank=2, outer_iters=3, admm_iters=5)
            _, report = lrd_fit(signal, d, cfg)
        assert report.sweeps == 3
        # the sweeps make none; an l2 or masked fit's start deconvolves by
        # one transform of the signal, one of the bank and one inverse per
        # filter (M = 3), an l1 fit's start by none, and a masked fit's
        # completion is one model synthesis: M filter spectra and one inverse
        start = 0 if reg == "l1" else 1 + 1 + 3
        synthesis = 3 + 1 if reg == "masked" else 0
        rejected = sum(not accepted for _, accepted in report.extrapolations)
        assert calls == {"spectral": 0, "nd_transforms": start + synthesis,
                         "taps_built": 9 + rejected}
        # the counter sees the model's FFT synthesis
        forward_model(d, [[rng.standard_normal((s, 2)) for s in (5, 4, 3)]
                          for rng in map(RNG, range(3))])
        assert calls["nd_transforms"] == start + synthesis + 3 + 1
