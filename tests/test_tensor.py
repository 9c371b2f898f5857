import numpy as np
import pytest

from lrdec.tensor import (KruskalTensor, build_q, co_size, fold, khatri_rao,
                          kruskal_reconstruct, unfold)

from oracles import (khatri_rao_by_columns, kruskal_by_outer_sums,
                     unfold_by_enumeration, vec_colmajor)

RNG = np.random.default_rng


def random_factors(shape, rank, seed):
    rng = RNG(seed)
    return [rng.standard_normal((s, rank)) for s in shape]


class TestUnfoldFold:
    def test_matrix_mode0_is_identity(self):
        a = RNG(0).standard_normal((3, 5))
        assert np.array_equal(unfold(a, 0), a)

    def test_matrix_mode1_is_transpose(self):
        a = RNG(1).standard_normal((3, 5))
        assert np.array_equal(unfold(a, 1), a.T)

    def test_2x2x2_linear_entries(self):
        # entries 1..8 laid out with the first mode fastest
        t = np.arange(1, 9).reshape((2, 2, 2), order="F")
        expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]])
        assert np.array_equal(unfold(t, 0), expected)
        assert np.array_equal(unfold_by_enumeration(t, 0), expected)

    @pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 3, 4), (2, 3, 2, 3)])
    def test_matches_index_map_enumeration(self, shape):
        t = RNG(2).standard_normal(shape)
        for n in range(len(shape)):
            assert np.array_equal(unfold(t, n), unfold_by_enumeration(t, n))

    @pytest.mark.parametrize("shape", [(6,), (4, 5), (3, 4, 2), (2, 3, 2, 4)])
    def test_round_trip_every_mode(self, shape):
        t = RNG(3).standard_normal(shape)
        for n in range(len(shape)):
            assert np.array_equal(fold(unfold(t, n), n, shape), t)

    def test_fold_zeros(self):
        assert np.array_equal(fold(np.zeros((3, 8)), 0, (3, 4, 2)),
                              np.zeros((3, 4, 2)))

    def test_fold_frozen_2x2x2(self):
        m = np.array([[1, 3, 5, 7], [2, 4, 6, 8]])
        t = fold(m, 0, (2, 2, 2))
        assert np.array_equal(t, np.arange(1, 9).reshape((2, 2, 2), order="F"))

    def test_mode_out_of_range(self):
        t = np.zeros((2, 2))
        with pytest.raises(ValueError):
            unfold(t, 2)
        with pytest.raises(ValueError):
            fold(np.zeros((2, 2)), -1, (2, 2))

    def test_fold_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros((3, 7)), 0, (3, 4, 2))

    def test_co_size(self):
        assert co_size((3, 4, 2), 1) == 6
        assert co_size((5,), 0) == 1


class TestKhatriRao:
    def test_single_columns_collapse_to_kron(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0], [5.0]])
        assert np.array_equal(khatri_rao(a, b),
                              np.kron(a[:, 0], b[:, 0])[:, None])

    def test_identity_pair(self):
        eye = np.eye(2)
        out = khatri_rao(eye, eye)
        expected = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=float)
        assert np.array_equal(out, expected)

    def test_matches_per_column_kron(self):
        a = RNG(4).standard_normal((3, 2))
        b = RNG(5).standard_normal((4, 2))
        assert np.array_equal(khatri_rao(a, b), khatri_rao_by_columns(a, b))

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


class TestKronecker:
    def test_vec_identity(self):
        rng = RNG(7)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        x = rng.standard_normal((2, 3))  # (A kron B) vec(X) == vec(B X A^T)
        lhs = np.kron(a, b) @ vec_colmajor(x)
        rhs = vec_colmajor(b @ x @ a.T)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestKruskal:
    def test_rank1_all_ones(self):
        k = KruskalTensor([np.ones((2, 1)), np.ones((3, 1)), np.ones((2, 1))])
        assert np.array_equal(k.full(), np.ones((2, 3, 2)))

    def test_rank1_basis_columns(self):
        e = [np.zeros((3, 1)), np.zeros((4, 1)), np.zeros((2, 1))]
        e[0][1, 0] = e[1][2, 0] = e[2][0, 0] = 1.0
        t = kruskal_reconstruct(e)
        expected = np.zeros((3, 4, 2))
        expected[1, 2, 0] = 1.0
        assert np.array_equal(t, expected)

    def test_matches_outer_sum_oracle(self):
        factors = random_factors((3, 4, 2), 2, seed=8)
        t = kruskal_reconstruct(factors)
        ref = kruskal_by_outer_sums(factors)
        assert np.max(np.abs(t - ref)) < 1e-12

    def test_single_mode(self):
        f = RNG(9).standard_normal((5, 3))
        assert np.allclose(kruskal_reconstruct([f]), f.sum(axis=1))

    def test_column_split_linearity(self):
        factors = random_factors((3, 4, 2), 5, seed=10)
        left = [f[:, :2] for f in factors]
        right = [f[:, 2:] for f in factors]
        total = kruskal_reconstruct(factors)
        split = kruskal_reconstruct(left) + kruskal_reconstruct(right)
        assert np.max(np.abs(total - split)) < 1e-12 * max(
            1.0, np.max(np.abs(total)))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KruskalTensor([np.zeros((3, 2)), np.zeros((4, 3))])


class TestBuildQ:
    def test_two_mode_chain(self):
        x0 = RNG(11).standard_normal((3, 2))
        x1 = RNG(12).standard_normal((4, 2))
        assert np.array_equal(build_q([x0, x1], 0), x1)
        assert np.array_equal(build_q([x0, x1], 1), x0)

    def test_all_ones_factors(self):
        factors = [np.ones((s, 3)) for s in (2, 3, 4)]
        for n in range(3):
            lam = co_size((2, 3, 4), n)
            assert np.array_equal(build_q(factors, n), np.ones((lam, 3)))

    @pytest.mark.parametrize("shape", [(3, 4), (3, 4, 2), (2, 3, 2, 3)])
    def test_unfolding_identity(self, shape):
        factors = random_factors(shape, 2, seed=13)
        full = kruskal_reconstruct(factors)
        for n in range(len(shape)):
            lhs = unfold(full, n)
            rhs = factors[n] @ build_q(factors, n).T
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_vectorized_identity_with_kron(self):
        shape = (3, 2, 2)
        factors = random_factors(shape, 2, seed=14)
        full = kruskal_reconstruct(factors)
        for n in range(len(shape)):
            lhs = vec_colmajor(unfold(full, n))
            op = np.kron(build_q(factors, n), np.eye(shape[n]))
            rhs = op @ vec_colmajor(factors[n])
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_single_mode_rejected(self):
        with pytest.raises(ValueError):
            build_q([np.zeros((3, 2))], 0)
