import random

import pytest

import cyclat.zmod
from cyclat.errors import ParseError, PreconditionError
from cyclat.intlinalg import IntMatrix, Lattice, quotient_invariants
from cyclat.zmod import (
    CyclicR,
    DirectSum,
    FinMod,
    FreeR,
    TrivCyclic,
    TrivFree,
    build,
    direct_sum,
    parse_modspec,
    random_module,
    random_spec,
    random_unimodular,
    spec_order,
)


def mult_by(p, n, u):
    """Z/n with the action of multiplication by the unit u."""
    return FinMod(p, 1, Lattice.spanned_by([(n,)], 1), IntMatrix([[u]]))


class TestParse:
    def test_leaves(self):
        assert parse_modspec("triv(5)") == TrivCyclic(5)
        assert parse_modspec("trivfree(2)") == TrivFree(2)
        assert parse_modspec("cyclicR(2,3)") == CyclicR(2, 3)
        assert parse_modspec("freeR(1)") == FreeR(1)

    def test_sum_and_whitespace(self):
        spec = parse_modspec(" triv(2) + cyclicR(3, 1)+triv(4) ")
        assert spec == DirectSum((TrivCyclic(2), CyclicR(3, 1), TrivCyclic(4)))

    def test_str_roundtrip(self):
        for text in ("triv(6)", "cyclicR(2,2)", "triv(2) + freeR(1)"):
            assert str(parse_modspec(text)) == text

    @pytest.mark.parametrize(
        "bad",
        ["", "triv", "triv(2", "triv(x)", "shrug(3)", "triv(2) +", "triv(2) junk", "triv(-2)"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_modspec(bad)


class TestBuild:
    def test_cyclicR_2_1(self):
        m = build(CyclicR(2, 1), 2)
        assert m.order() == 4
        assert m.aut == IntMatrix([[0, 1], [1, 0]])

    def test_triv_cyclic(self):
        m = build(TrivCyclic(5), 2)
        assert m.order() == 5
        assert m.aut == IntMatrix.identity(1)

    def test_direct_sum_orders_multiply(self):
        m = build(DirectSum((TrivCyclic(2), TrivCyclic(3))), 2)
        assert m.order() == 6
        assert m.invariants().describe() == "Z/6"

    def test_freeR_infinite(self):
        m = build(FreeR(1), 3)
        assert not m.is_finite()
        with pytest.raises(PreconditionError):
            m.enumerate()
        with pytest.raises(PreconditionError):
            m.order()

    def test_cyclicR_q_equals_p(self):
        m = build(CyclicR(3, 1), 3)
        assert m.order() == 27

    def test_bad_specs(self):
        with pytest.raises(PreconditionError):
            build(CyclicR(4, 1), 2)
        with pytest.raises(PreconditionError):
            build(TrivCyclic(0), 2)
        with pytest.raises(PreconditionError):
            build(TrivCyclic(2), 4)

    def test_spec_order_of_random_specs(self):
        rng = random.Random(3)
        for p in (2, 3, 5):
            for _ in range(10):
                spec = random_spec(rng, p)
                assert spec_order(spec, p) == build(spec, p).order()

    @pytest.mark.parametrize("text", ["freeR(1)", "trivfree(2)", "triv(2)+freeR(1)"])
    def test_spec_order_of_an_infinite_shape_is_none(self, text):
        assert spec_order(parse_modspec(text), 2) is None

    def test_shape_merging(self):
        m = direct_sum(build(TrivCyclic(2), 2), build(CyclicR(2, 1), 2))
        assert m.shape == DirectSum((TrivCyclic(2), CyclicR(2, 1)))


class TestValidation:
    def test_rejects_wrong_order_action(self):
        # multiplication by 2 has order 4 on Z/5
        with pytest.raises(PreconditionError):
            mult_by(2, 5, 2)

    def test_accepts_unit_actions(self):
        mult_by(2, 5, 4)
        mult_by(3, 7, 2)

    def test_rejects_non_preserving(self):
        rel = Lattice.spanned_by([(2, 0), (0, 4)], 2)
        with pytest.raises(PreconditionError):
            FinMod(2, 2, rel, IntMatrix([[0, 1], [1, 0]]))


class TestElements:
    def test_enumerate_triv3(self):
        m = build(TrivCyclic(3), 2)
        assert m.enumerate() == [(0,), (1,), (2,)]

    def test_enumerate_r_mod_2(self):
        m = build(CyclicR(2, 1), 2)
        assert m.enumerate() == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert m.enumerate()[0] == (0, 0)

    def test_reduce_idempotent_and_consistent(self):
        rng = random.Random(1)
        m = random_module(rng, 2)
        for _ in range(20):
            v = [rng.randint(-9, 9) for _ in range(m.r)]
            r1 = m.reduce(v)
            assert m.reduce(r1) == r1
            shift = m.rel.basis.apply([rng.randint(-2, 2) for _ in range(m.rel.rank)])
            assert m.reduce([a + b for a, b in zip(v, shift)]) == r1

    def test_index_of(self):
        m = build(CyclicR(2, 1), 2)
        assert m.index_of((0, 0)) == 0
        assert m.index_of((3, 2)) == m.index_of((1, 0))

    def test_enumeration_bound(self, monkeypatch):
        monkeypatch.setattr(cyclat.zmod, "MAX_ENUMERATION", 8)
        assert len(build(TrivCyclic(8), 2).enumerate()) == 8
        m = build(CyclicR(3, 1), 2)
        with pytest.raises(PreconditionError, match=r"order 9 .*bound 8"):
            m.enumerate()
        with pytest.raises(PreconditionError, match="bound 8"):
            m.index_of((0, 0))


class TestOrbits:
    def test_mult_by_4_on_z5(self):
        m = mult_by(2, 5, 4)
        assert m.orbits() == [[(0,)], [(1,), (4,)], [(2,), (3,)]]

    def test_trivial_all_singletons(self):
        m = build(TrivCyclic(4), 2)
        assert all(len(o) == 1 for o in m.orbits())

    def test_r_mod_3_fixed_points(self):
        m = build(CyclicR(3, 1), 2)
        orbs = m.orbits()
        fixed = [o[0] for o in orbs if len(o) == 1]
        assert fixed == [(0, 0), (1, 1), (2, 2)]
        assert sum(1 for o in orbs if len(o) == 2) == 3

    def test_orbit_sizes_and_burnside(self):
        rng = random.Random(7)
        for p in (2, 3):
            for _ in range(15):
                m = random_module(rng, p)
                orbs = m.orbits()
                assert all(len(o) in (1, p) for o in orbs)
                fixed = sum(1 for o in orbs if len(o) == 1)
                assert fixed % p == m.order() % p


class TestOperatorSubgroups:
    def test_trivial_action_t_image_zero(self):
        m = build(TrivCyclic(6), 2)
        assert m.t_image() == m.rel

    def test_r_mod_4_t_image_orders(self):
        m = build(CyclicR(2, 2), 2)
        t_img = m.t_image()
        assert quotient_invariants(t_img, m.rel).order() == 4
        doubled = Lattice(m.r, IntMatrix.hstack(2 * t_img.basis, m.rel.basis))
        assert quotient_invariants(doubled, m.rel).order() == 2

    def test_s_kernel_equals_t_image_when_q_differs(self):
        m = build(CyclicR(3, 1), 2)
        assert m.s_kernel() == m.t_image()

    def test_fixed_submodule_of_swap(self):
        m = build(CyclicR(2, 1), 2)
        fixed = m.fixed_submodule()
        # diagonal plus the relations
        assert fixed.member((1, 1))
        assert not fixed.member((1, 0))
        assert quotient_invariants(fixed, m.rel).order() == 2


class TestSubmodules:
    def test_zero_generators(self):
        m = build(CyclicR(2, 1), 2)
        sub = m.submodule_generated([])
        assert sub.module.order() == 1

    def test_fixed_generator_in_r_mod_2(self):
        m = build(CyclicR(2, 1), 2)
        sub = m.submodule_generated([(1, 1)])
        assert sub.module.order() == 2
        assert sub.span.member((1, 1))

    def test_all_generators_give_m(self):
        m = build(CyclicR(2, 1), 2)
        sub = m.submodule_generated(m.enumerate())
        assert sub.module.order() == m.order()
        assert sub.span == Lattice.full(m.r)

    def test_inclusion_commutes_with_action(self):
        rng = random.Random(3)
        for _ in range(10):
            m = random_module(rng, 2)
            elems = m.enumerate()
            g = elems[rng.randrange(len(elems))]
            sub = m.submodule_generated([g])
            for v in sub.module.enumerate():
                lhs = m.reduce(sub.embed(sub.module.aut.apply(v)))
                rhs = m.reduce(m.aut.apply(sub.embed(v)))
                assert lhs == rhs

    def test_invariant_subgroups_of_swap_square(self):
        m = build(CyclicR(2, 1), 2)
        subs = m.invariant_subgroups()
        # 0, the diagonal, everything
        assert len(subs) == 3
        orders = sorted(quotient_invariants(s, m.rel).order() for s in subs)
        assert orders == [1, 2, 4]


class TestRandomModules:
    def test_deterministic(self):
        a = random_module(random.Random(42), 2)
        b = random_module(random.Random(42), 2)
        assert a.rel == b.rel and a.aut == b.aut

    def test_pool_properties(self):
        rng = random.Random(9)
        for p in (2, 3):
            for _ in range(25):
                m = random_module(rng, p)
                assert m.is_finite()
                assert 1 <= m.order() <= 64

    def test_random_unimodular_is_unimodular(self):
        from cyclat.intlinalg import det

        rng = random.Random(5)
        for n in (1, 2, 3, 5):
            for _ in range(5):
                assert det(random_unimodular(rng, n)) in (1, -1)
