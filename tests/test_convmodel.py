import numpy as np
import pytest
import scipy.linalg

import lrdec.convmodel
import lrdec.solver
from lrdec.convmodel import (Dictionary, SpectralOperator, circular_convolve,
                             factor_to_vec, filter_correlations,
                             filter_spectra, forward_model, pad_to_shape,
                             signal_to_vec, vec_to_factor, vec_to_signal)
from lrdec.solver import SolverConfig, lrd_fit, lrd_fit_masked, _half_rhs
from lrdec.tensor import KruskalTensor, unfold
from lrdec.transform import dft_factor, dft_nd

from oracles import (circular_convolve_by_sums, gram_blocks_by_pairs,
                     kruskal_by_outer_sums, materialize_w, vec_colmajor)

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


def to_kruskal(factors):
    m_count = factors[0].shape[0]
    return [KruskalTensor([f[m] for f in factors])
            for m in range(m_count)]


class TestCircularConvolve:
    def test_delta_filter_identity(self):
        act = RNG(0).standard_normal((4, 5))
        delta = np.zeros((1, 1))
        delta[0, 0] = 1.0
        out = circular_convolve(delta, act)
        assert np.max(np.abs(out - act)) < 1e-12

    def test_zero_activation(self):
        filt = RNG(1).standard_normal((2, 2))
        assert np.max(np.abs(circular_convolve(filt, np.zeros((5, 5))))) == 0.0

    def test_matches_direct_sums(self):
        rng = RNG(2)
        filt = rng.standard_normal((3, 3))
        act = rng.standard_normal((6, 6))
        out = circular_convolve(filt, act)
        ref = circular_convolve_by_sums(filt, act)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_three_mode_oracle(self):
        rng = RNG(3)
        filt = rng.standard_normal((2, 3, 1))
        act = rng.standard_normal((4, 5, 3))
        out = circular_convolve(filt, act)
        ref = circular_convolve_by_sums(filt, act)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_support_exceeds_shape(self):
        with pytest.raises(ValueError):
            circular_convolve(np.zeros((4, 4)), np.zeros((3, 5)))

    def test_commutes_when_both_padded(self):
        rng = RNG(4)
        shape = (6, 5)
        d = pad_to_shape(rng.standard_normal((3, 2)), shape)
        k = rng.standard_normal(shape)
        lhs = circular_convolve(d, k)
        rhs = circular_convolve(k, d)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestDictionary:
    def test_channel_layout(self):
        d = random_dictionary((2, 2), 3, seed=5, channels=2)
        assert d.num_filters == 3
        assert d.num_channels == 2
        assert d.support == (2, 2)

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
            ref += circular_convolve_by_sums(d.filter(m), k_m)
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
        assert np.max(np.abs(op.materialize() - w)) < 1e-12 * max(
            1.0, np.max(np.abs(w)))

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
        calls = {"pad_to_shape": 0, "taps_built": 0}
        original_pad = lrdec.convmodel.pad_to_shape
        original_taps = SpectralOperator.conv_taps

        def counted(filt, shape):
            calls["pad_to_shape"] += 1
            return original_pad(filt, shape)

        def conv_taps(op):
            calls["taps_built"] += op._taps is None
            return original_taps(op)

        monkeypatch.setattr(lrdec.convmodel, "pad_to_shape", counted)
        monkeypatch.setattr(SpectralOperator, "conv_taps", conv_taps)
        op, _, _, factors = tiny_operator((4, 3, 2), 2, 2, seed=29,
                                          channels=2, mode=1)
        rng = RNG(30)
        # the spectrum of a real signal, as the gradient needs
        shat = signal_to_vec(np.stack([
            unfold(dft_nd(c), 1) for c in rng.standard_normal((2, 4, 3, 2))]))
        op.apply(rng.standard_normal(op.factor_size))
        op.apply_adjoint(shat)
        op.materialize()
        lrdec.solver.solve_mode_quadratic(op, shat, None, 0.5)
        lrdec.solver.data_term_gradient(op, shat, factors[1])
        lrdec.solver.solve_mode_admm(
            op, shat, SolverConfig(reg="l1", admm_iters=3))
        assert calls == {"pad_to_shape": 0, "taps_built": 1}

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


class TestNormalBlocks:
    def test_blocks_match_materialized_normal_matrix(self):
        for channels in (1, 2):
            op, w, _, _ = tiny_operator((3, 2), 2, 2, seed=29,
                                        channels=channels)
            rho = 0.7
            blocks = op.normal_blocks(rho)
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
        blocks = op.normal_blocks(rho)
        for blk in blocks:
            assert np.max(np.abs(blk - blk.conj().T)) < 1e-12 * max(
                1.0, np.max(np.abs(blk)))
            eigs = np.linalg.eigvalsh(blk)
            assert eigs.min() >= rho * (1.0 - 1e-9)

    def test_scalar_case_direct_sum(self):
        op, _, d, factors = tiny_operator((4, 3), 1, 1, seed=31)
        rho = 0.5
        blocks = op.normal_blocks(rho)
        dhat = unfold(np.fft.fftn(pad_to_shape(d.filter(0), (4, 3))), 0)
        qhat = dft_factor(factors[1][0])[:, 0]
        for i in range(4):
            direct = np.sum(np.abs(dhat[i]) ** 2 * np.abs(qhat) ** 2) + rho
            assert abs(blocks[i, 0, 0] - direct) < 1e-11 * max(1.0, direct)

    def test_regularizer_must_be_positive(self):
        op, _, _, _ = tiny_operator()
        with pytest.raises(ValueError):
            op.normal_blocks(0.0)


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
    # lags folded mod I_k where 2 L_k - 1 > I_k on the other mode
    pytest.param((7, 6), 2, 2, 1, 0, (6, 5), id="fold-7x6"),
    # full support on the folded mode, C = 2, even I_n
    pytest.param((12, 10), 2, 2, 2, 1, (12, 3), id="fold-12x10-c2"),
    # a middle mode with one folded (mode 2) and one exact (mode 0) lag set
    pytest.param((9, 8, 5), 2, 3, 1, 1, (4, 6, 4), id="fold-9x8x5"),
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
        want = op.adjoint_arrays(shat)[:, :half]
        # the right-hand side the fits build on the taps, from the signal
        got = _half_rhs(op, signal)
        assert got.shape == (m_count, half, rank)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(
            1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("length", [5, 6])
    def test_normal_blocks_mirror_the_half(self, length):
        op, _, _, _ = tiny_operator((length, 3), 2, 2, seed=41)
        half = op.gram_blocks() + 0.25 * np.eye(4)
        full = op.normal_blocks(0.25)
        assert full.shape[0] == length
        assert np.array_equal(full[:len(half)], half)
        for i in range(1, (length + 1) // 2):  # not the self-conjugate ones
            assert np.array_equal(full[length - i], full[i].conj())

    def test_filter_spectra_layout(self):
        d = random_dictionary((2, 3), 3, seed=42, channels=2)
        spectra = filter_spectra(d, (4, 5))
        assert spectra.shape == (3, 2, 4, 5)
        for m in range(3):
            for c in range(2):
                assert np.array_equal(
                    spectra[m, c], np.fft.fftn(pad_to_shape(d.filter(m, c),
                                                            (4, 5))))

    @pytest.mark.parametrize("reg", ["l2", "l1", "masked"])
    def test_fit_makes_no_filter_spectra(self, monkeypatch, reg):
        calls = {"spectral": 0, "pad_to_shape": 0, "taps_built": 0}

        def spectral(self, rows):
            calls["spectral"] += 1

        def counted(filt, shape):
            calls["pad_to_shape"] += 1

        original = SpectralOperator.conv_taps

        def conv_taps(op):
            calls["taps_built"] += op._taps is None
            return original(op)

        # every fit runs on the mode-n taps, built once per visit
        monkeypatch.setattr(SpectralOperator, "apply_arrays", spectral)
        monkeypatch.setattr(SpectralOperator, "adjoint_arrays", spectral)
        monkeypatch.setattr(SpectralOperator, "conv_taps", conv_taps)
        monkeypatch.setattr(lrdec.convmodel, "pad_to_shape", counted)
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
        assert calls == {"spectral": 0, "pad_to_shape": 0, "taps_built": 9}

    @pytest.mark.parametrize("reg", ["l2", "l1", "masked"])
    def test_fit_makes_filter_correlations_once_per_mode(self, monkeypatch,
                                                         reg):
        modes = []
        original = lrdec.convmodel.filter_correlations

        def counted(dictionary, shape, mode):
            modes.append(mode)
            return original(dictionary, shape, mode)

        # the operator makes its own when the fit passes none
        monkeypatch.setattr(lrdec.convmodel, "filter_correlations", counted)
        monkeypatch.setattr(lrdec.solver, "filter_correlations", counted)
        d = random_dictionary((2, 2, 2), 2, seed=48)
        signal = RNG(49).standard_normal((5, 4, 3))
        cfg = SolverConfig(reg="l1" if reg == "l1" else "l2", rank=2,
                           outer_iters=3, admm_iters=5)
        if reg == "masked":
            mask = RNG(50).random(signal.shape) < 0.7
            report = lrd_fit_masked(signal, mask, d, cfg)[-1]
        else:
            report = lrd_fit(signal, d, cfg)[-1]
        assert report.sweeps == 3
        assert modes == [0, 1, 2]

    def test_operator_rejects_mismatched_correlations(self):
        d = random_dictionary((2, 2), 2, seed=51)
        factors = factor_stacks((4, 3), 2, 1, seed=52)
        with pytest.raises(ValueError):
            SpectralOperator(d, (4, 3), factors, 0,
                             correlations=filter_correlations(d, (4, 3), 1))
