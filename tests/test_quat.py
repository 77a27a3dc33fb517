import numpy as np
import pytest

from quatcnn.quat import (
    Quaternion, QTensor, I, J, K, ONE,
    add, hamilton, conjugate, norm, split_complex, recompose,
)
from testutil import assert_close, hamilton_oracle, random_quaternion

TOL = 1e-12


def comps(q):
    return q.components()


class TestAdd:
    def test_additive_identity(self):
        assert comps(add(Quaternion(1, 2, 3, 4), Quaternion(0, 0, 0, 0))) == (1, 2, 3, 4)

    def test_additive_inverse(self):
        assert comps(add(Quaternion(1, 1, 1, 1), Quaternion(-1, -1, -1, -1))) == (0, 0, 0, 0)

    def test_componentwise(self):
        assert comps(add(Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8))) == (6, 8, 10, 12)

    def test_commutative_associative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p, q, r = (random_quaternion(rng) for _ in range(3))
            assert comps(add(p, q)) == comps(add(q, p))
            assert_close(comps(add(add(p, q), r)), comps(add(p, add(q, r))), TOL)


class TestHamilton:
    def test_unit_products(self):
        assert comps(hamilton(I, J)) == (0, 0, 0, 1)   # i j = k
        assert comps(hamilton(J, I)) == (0, 0, 0, -1)  # j i = -k
        for u in (I, J, K):
            assert comps(hamilton(u, u)) == (-1, 0, 0, 0)

    def test_multiplicative_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = random_quaternion(rng)
            assert comps(hamilton(ONE, q)) == comps(q)
            assert comps(hamilton(q, ONE)) == comps(q)

    def test_worked_example(self):
        # (1,2,3,4) x (5,6,7,8), frozen from the basis-table oracle
        assert comps(hamilton(Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8))) == (-60, 12, 30, 24)

    def test_matches_basis_table_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert_close(comps(hamilton(p, q)), comps(hamilton_oracle(p, q)), TOL)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p, q, r = (random_quaternion(rng) for _ in range(3))
            left = hamilton(hamilton(p, q), r)
            right = hamilton(p, hamilton(q, r))
            assert_close(comps(left), comps(right), TOL)

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert_close(norm(hamilton(p, q)), norm(p) * norm(q), TOL)

    def test_distributivity_both_sides(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p, q, r = (random_quaternion(rng) for _ in range(3))
            assert_close(
                comps(hamilton(p, add(q, r))),
                comps(add(hamilton(p, q), hamilton(p, r))), TOL,
            )
            assert_close(
                comps(hamilton(add(q, r), p)),
                comps(add(hamilton(q, p), hamilton(r, p))), TOL,
            )

    def test_bilinearity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p, q = random_quaternion(rng), random_quaternion(rng)
            a = float(rng.uniform(-2, 2))
            scaled = Quaternion(a * p.q0, a * p.q1, a * p.q2, a * p.q3)
            expect = hamilton(p, q)
            expect = Quaternion(a * expect.q0, a * expect.q1, a * expect.q2, a * expect.q3)
            assert_close(comps(hamilton(scaled, q)), comps(expect), TOL)


class TestConjugate:
    def test_definition(self):
        assert comps(conjugate(Quaternion(1, 2, 3, 4))) == (1, -2, -3, -4)

    def test_real_self_conjugate(self):
        assert comps(conjugate(Quaternion(5, 0, 0, 0))) == (5, 0, 0, 0)

    def test_involution(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = random_quaternion(rng)
            assert comps(conjugate(conjugate(q))) == comps(q)

    def test_q_times_conjugate_is_norm_squared(self):
        q = Quaternion(1, 1, 1, 1)
        assert comps(hamilton(q, conjugate(q))) == (4, 0, 0, 0)
        rng = np.random.default_rng(8)
        for _ in range(200):
            q = random_quaternion(rng)
            assert_close(
                comps(hamilton(q, conjugate(q))), (norm(q) ** 2, 0, 0, 0), TOL
            )

    def test_anti_homomorphism(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert_close(
                comps(conjugate(hamilton(p, q))),
                comps(hamilton(conjugate(q), conjugate(p))), TOL,
            )


class TestSplitComplex:
    def test_regrouping(self):
        z0, z1 = split_complex(Quaternion(1, 2, 3, 4))
        assert (z0, z1) == (1 + 2j, 3 + 4j)

    def test_zero(self):
        assert split_complex(Quaternion(0, 0, 0, 0)) == (0j, 0j)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            q = random_quaternion(rng)
            assert comps(recompose(*split_complex(q))) == comps(q)


class TestQTensor:
    def test_pack_zeros(self):
        zeros = [np.zeros((1, 2, 2)) for _ in range(4)]
        t = QTensor.from_planes(*zeros)
        assert t.shape == (1, 2, 2)
        assert np.all(t.data == 0)

    def test_shape_mismatch_names_plane(self):
        p = np.zeros((1, 2, 2))
        bad = np.zeros((1, 3, 2))
        with pytest.raises(ValueError, match="plane 2"):
            QTensor.from_planes(p, p.copy(), bad, p.copy())

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(11)
        planes = [rng.uniform(-1, 1, (3, 4, 5)) for _ in range(4)]
        t = QTensor.from_planes(*planes)
        for got, want in zip(t.planes, planes):
            assert np.array_equal(got, want)

    def test_element_access_reconstructs_quaternion(self):
        rng = np.random.default_rng(12)
        planes = [rng.uniform(-1, 1, (2, 3, 3)) for _ in range(4)]
        t = QTensor.from_planes(*planes)
        q = t.at(1, 2, 0)
        assert comps(q) == tuple(float(p[1, 2, 0]) for p in planes)

    def test_rejects_wrong_leading_dim(self):
        with pytest.raises(ValueError, match=r"\(4, C, H, W\)"):
            QTensor(np.zeros((3, 1, 2, 2)))
