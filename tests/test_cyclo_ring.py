import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclat.cyclo_ring import (
    RingElt,
    const,
    decompose_prime,
    divide_by_twist,
    generator,
    is_prime,
    norm,
    twist,
)
from cyclat.errors import PreconditionError

PRIMES = (2, 3, 5, 7, 11, 13)


def elt(p, *coeffs):
    return RingElt(p, coeffs)


@st.composite
def ring_elts(draw, p=5):
    return RingElt(p, draw(st.lists(st.integers(-9, 9), min_size=p, max_size=p)))


class TestRingBasics:
    def test_exponent_reduction(self):
        assert RingElt(3, [0, 0, 0, 1]) == const(3, 1)  # x^3 == 1
        assert generator(5).pow(5) == const(5, 1)

    def test_nonprime_rejected(self):
        with pytest.raises(PreconditionError):
            RingElt(4, [1])

    def test_mul_commutes_with_matrix_rep(self):
        rng = random.Random(3)
        for p in (2, 3, 5):
            for _ in range(10):
                a = RingElt(p, [rng.randint(-5, 5) for _ in range(p)])
                b = RingElt(p, [rng.randint(-5, 5) for _ in range(p)])
                assert (a * b).coeffs == a.matrix().apply(b.coeffs)

    def test_generator_matrix_is_cyclic_shift(self):
        g = generator(3).matrix()
        assert g.tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        assert g.pow(3) == g.pow(0)

    def test_twist_kills_norm(self):
        for p in PRIMES:
            assert (twist(p) * norm(p)).is_zero()

    def test_norm_absorbs_everything(self):
        # f * norm == aug(f) * norm
        rng = random.Random(5)
        for p in (2, 3, 7):
            for _ in range(10):
                f = RingElt(p, [rng.randint(-9, 9) for _ in range(p)])
                assert f * norm(p) == f.aug() * norm(p)

    @given(st.sampled_from((2, 3, 5, 7)).flatmap(ring_elts))
    @settings(max_examples=60, deadline=None)
    def test_on_the_shift_is_the_regular_representation(self, lam):
        assert lam.on(generator(lam.p).matrix()) == lam.matrix()

    @given(st.sampled_from(PRIMES).flatmap(ring_elts))
    @settings(max_examples=60, deadline=None)
    def test_matrix_is_the_circulant_of_the_coefficients(self, lam):
        # entry (i, j) is the coefficient of x^(i - j), built here densely
        p = lam.p
        assert lam.matrix().tolist() == [[lam.coeffs[(i - j) % p] for j in range(p)] for i in range(p)]

    def test_str_is_the_polynomial_text(self):
        assert str(elt(3, 1, -1, 2)) == "1 - x + 2*x^2"
        assert str(const(5, 0)) == "0"
        assert repr(elt(2, 0, 1)) == "RingElt(2, x)"

    @given(ring_elts(), ring_elts())
    @settings(max_examples=60, deadline=None)
    def test_aug_is_a_ring_map(self, a, b):
        assert (a * b).aug() == a.aug() * b.aug()
        assert (a + b).aug() == a.aug() + b.aug()


class TestTwistDivision:
    def test_known_quotient(self):
        # x^2 - 1 == t * (x + 1) and the canonical quotient for p=3 keeps
        # the top coefficient at zero
        q = divide_by_twist(elt(3, -1, 0, 1))
        assert q == elt(3, 1, 1, 0)

    def test_rejects_nonzero_aug(self):
        with pytest.raises(PreconditionError):
            divide_by_twist(const(3, 1))

    @given(ring_elts())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, a):
        e = twist(5) * a
        q = divide_by_twist(e)
        assert twist(5) * q == e
        assert q.coeffs[-1] == 0


class TestPrimeDecomposition:
    def test_p2_values(self):
        d = decompose_prime(2)
        assert d.core == const(2, -1)
        assert d.seed == const(2, 0)
        assert d.twist_coeff == const(2, 0)
        assert d.norm_coeff == const(2, 1)

    def test_p3_values(self):
        d = decompose_prime(3)
        assert d.core == elt(3, 0, -1)  # -x
        assert d.seed == const(3, -1)
        assert d.twist_coeff == elt(3, -1, -1)  # -1 - x
        t = twist(3)
        assert d.norm_coeff == const(3, 1) - t + t * t

    @pytest.mark.parametrize("p", PRIMES)
    def test_identity_holds(self, p):
        d = decompose_prime(p)
        t, s = twist(p), norm(p)
        lhs = const(p, p)
        rhs = -t.pow(p - 1) + t.pow(p) * d.twist_coeff + s * d.norm_coeff
        assert lhs == rhs

    @pytest.mark.parametrize("p", PRIMES)
    def test_component_identities(self, p):
        d = decompose_prime(p)
        t, s = twist(p), norm(p)
        assert t.pow(p - 1) == p * d.core + s
        assert d.core.aug() == -1
        assert t * d.seed == d.core + const(p, 1)
        assert d.norm_coeff.aug() == 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_step_count_and_states(self, p):
        d = decompose_prime(p)
        # start state, p-1 substitution states, final fold
        assert len(d.steps) == p + 1
        assert d.steps[0].twist_acc.is_zero()
        assert d.steps[-1].carrier.is_zero()
        t, s = twist(p), norm(p)
        for st_ in d.steps:
            rhs = (
                -t.pow(p - 1)
                + t.pow(p) * st_.twist_acc
                + p * st_.carrier
                + s * st_.norm_acc
            )
            assert rhs == const(p, p)

    def test_nonprime_rejected(self):
        with pytest.raises(PreconditionError):
            decompose_prime(6)


class TestTwistPowers:
    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_power_identity(self, p, k):
        assert decompose_prime(p).twist_power_identity_holds(k)

    def test_p2_explicit(self):
        # t^2 == 2 - 2x == 4*core^2 - 2*norm when p == 2
        assert twist(2).pow(2) == elt(2, 2, -2)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
