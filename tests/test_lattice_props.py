import random

import pytest

import cyclat.lattice_props
from cyclat.cyclo_ring import const, norm, twist
from cyclat.errors import PreconditionError
from cyclat.intlinalg import IntMatrix, Lattice
from cyclat.lattice_props import (
    InclusionPair,
    check_t_condition,
    check_t_intersection,
    find_equivariant_projection,
    find_impurity_witness,
    inclusion_diagram,
    purity_witness,
)
from cyclat.presentation import EquivariantLattice, build_aug
from cyclat.zmod import CyclicR, build, parse_modspec, random_module


def pair_of(m, span):
    return InclusionPair(m, m.submodule_from_lattice(span))


def full_pair(m):
    return pair_of(m, Lattice.full(m.r))


def zero_pair(m):
    return pair_of(m, m.rel)


def r4_twist_pair():
    """The canonical failing inclusion: R/(4) over its twist image, p = 2."""
    m = build(CyclicR(2, 2), 2)
    return pair_of(m, m.t_image())


class TestNoncyclotomic:
    def test_r_mod_3_kernel(self):
        eq = build_aug(build(CyclicR(3, 1), 2)).kernel_pair()
        assert eq.is_noncyclotomic()

    def test_regular_lattice(self):
        for p in (2, 3):
            shift = build(CyclicR(2, 1), p).aut if p == 2 else None
        eq2 = EquivariantLattice(2, Lattice.full(2), IntMatrix([[0, 1], [1, 0]]))
        assert eq2.is_noncyclotomic()
        eq3 = EquivariantLattice(
            3, Lattice.full(3), IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        )
        assert eq3.is_noncyclotomic()

    def test_twist_image_of_regular_fails(self):
        # rank-one lattice with the action of -1: norm acts as zero
        eq = EquivariantLattice(2, Lattice.full(1), IntMatrix([[-1]]))
        assert not eq.is_noncyclotomic()

    def test_random_presentation_kernels(self):
        rng = random.Random(17)
        for p in (2, 3):
            for _ in range(6):
                eq = build_aug(random_module(rng, p, max_order=32)).kernel_pair()
                assert eq.is_noncyclotomic()


class TestTwistIntersection:
    def test_extreme_pairs(self):
        m = build(CyclicR(2, 1), 2)
        assert check_t_intersection(full_pair(m)).ok
        assert check_t_intersection(zero_pair(m)).ok

    def test_fixed_submodule_of_r_mod_4(self):
        m = build(CyclicR(2, 2), 2)
        assert check_t_intersection(pair_of(m, m.fixed_submodule())).ok

    def test_random_pairs(self):
        rng = random.Random(29)
        for p in (2, 3):
            for _ in range(5):
                m = random_module(rng, p, max_order=24)
                subs = m.invariant_subgroups() if m.order() <= 16 else [m.rel, Lattice.full(m.r)]
                for span in subs:
                    assert check_t_intersection(pair_of(m, span)).ok


class TestTwistCondition:
    def test_extreme_pairs(self):
        m = build(CyclicR(2, 2), 2)
        assert check_t_condition(full_pair(m))
        assert check_t_condition(zero_pair(m))

    def test_r_mod_4_twist_image_fails(self):
        assert not check_t_condition(r4_twist_pair())

    def test_component_of_direct_sum(self):
        m = build(parse_modspec("triv(2) + cyclicR(2,1)"), 2)
        span = Lattice(3, IntMatrix.hstack(IntMatrix.from_cols([(1, 0, 0)]), m.rel.basis))
        assert check_t_condition(pair_of(m, span))


class TestPurity:
    def test_xi_already_inside(self):
        m = build(CyclicR(2, 1), 2)
        pair = pair_of(m, m.fixed_submodule())
        zero_hat = (1, 0, 0, 0)
        v = purity_witness(pair, zero_hat, twist(2))
        assert v.pure and v.eta == zero_hat

    def test_zero_lambda(self):
        m = build(CyclicR(2, 1), 2)
        pair = pair_of(m, m.fixed_submodule())
        xi = (0, 0, 2, 0)  # 2 e-hat_0: in N, not supported on the submodule
        v = purity_witness(pair, xi, const(2, 0))
        assert v.pure and v.eta == (0, 0, 0, 0)

    def test_norm_on_outside_vector(self):
        # xi = twist of a kernel vector supported off the submodule: s xi = 0
        m = build(parse_modspec("triv(2) + cyclicR(2,1)"), 2)
        span = Lattice(3, IntMatrix.hstack(IntMatrix.from_cols([(1, 0, 0)]), m.rel.basis))
        pair = pair_of(m, span)
        x = pair.pres.index((0, 1, 0))
        ax = pair.pres.index(m.act((0, 1, 0)))
        xi = [0] * pair.pres.size
        xi[ax] += 2
        xi[x] -= 2
        assert not pair.N0.member(tuple(xi))
        v = purity_witness(pair, tuple(xi), norm(2))
        assert v.pure

    def test_precondition_rejected(self):
        m = build(CyclicR(2, 1), 2)
        pair = pair_of(m, m.fixed_submodule())
        # 2 e-hat_0 is in N but 2x its class does not land in N_0
        with pytest.raises(PreconditionError):
            purity_witness(pair, (0, 0, 2, 0), const(2, 1))

    def test_direct_membership_decides_when_the_constructive_route_is_blocked(self, monkeypatch):
        # the twist condition fails, so no w_0 exists and the verdict comes
        # from solving lam N_0 against lam xi directly
        pair = r4_twist_pair()
        w = find_impurity_witness(pair)
        solve = cyclat.lattice_props.solve_columns
        calls = []

        def recording(a, b):
            calls.append((a.rows, a.cols))
            return solve(a, b)

        monkeypatch.setattr(cyclat.lattice_props, "solve_columns", recording)
        v = purity_witness(pair, w.xi, norm(2))
        assert len(calls) == 3 and calls[2] == (16, 4)
        assert not v.pure and v == w

    def test_purity_conclusion_on_random_pairs(self):
        rng = random.Random(41)
        lams = [twist(2), norm(2), const(2, 2)]
        for _ in range(6):
            m = random_module(rng, 2, max_order=16)
            for span in m.invariant_subgroups():
                pair = pair_of(m, span)
                holds = check_t_condition(pair)
                for b in pair.N.basis.columns():
                    for lam in lams:
                        lx = lam.on(pair.pres.action).apply(b)
                        if not pair.N0.member(lx):
                            continue
                        v = purity_witness(pair, b, lam)
                        if holds:
                            assert v.pure


class TestImpurityWitness:
    def test_canonical_counterexample(self):
        w = find_impurity_witness(r4_twist_pair())
        assert w is not None
        assert not w.pure
        assert w.lam == norm(2)

    def test_fixed_submodule_of_r_mod_2(self):
        m = build(CyclicR(2, 1), 2)
        pair = pair_of(m, m.fixed_submodule())
        assert not check_t_condition(pair)
        w = find_impurity_witness(pair)
        assert w is not None and not w.pure

    def test_none_when_condition_holds(self):
        m = build(CyclicR(2, 2), 2)
        assert find_impurity_witness(full_pair(m)) is None


class TestProjection:
    def test_whole_lattice(self):
        pair = full_pair(build(CyclicR(2, 1), 2))
        proj = find_equivariant_projection(pair.N0, pair.eq())
        assert proj == IntMatrix.identity(4)

    def test_zero_submodule(self):
        # the kernel over the zero module is the zero-hat line; it splits off
        pair = zero_pair(build(CyclicR(2, 1), 2))
        proj = find_equivariant_projection(pair.N0, pair.eq())
        assert proj is not None
        assert proj.trace() == 1

    def test_counterexample_has_none(self):
        pair = r4_twist_pair()
        assert find_equivariant_projection(pair.N0, pair.eq()) is None

    def test_direct_summand_has_one(self):
        m = build(parse_modspec("triv(2) + cyclicR(2,1)"), 2)
        span = Lattice(3, IntMatrix.hstack(IntMatrix.from_cols([(1, 0, 0)]), m.rel.basis))
        pair = pair_of(m, span)
        assert find_equivariant_projection(pair.N0, pair.eq()) is not None

    SWAP = IntMatrix([[0, 1], [1, 0]])

    def test_summand_outside_the_lattice(self):
        # (1, 0) escapes 2 Z^2 and is not swap-invariant; the containment check comes first
        eq = EquivariantLattice(2, Lattice(2, 2 * IntMatrix.identity(2)), self.SWAP)
        with pytest.raises(PreconditionError, match="inside the lattice"):
            find_equivariant_projection(Lattice.spanned_by([(1, 0)], 2), eq)

    def test_zero_summand_projects_by_zero(self):
        eq = EquivariantLattice(2, Lattice.full(2), self.SWAP)
        assert find_equivariant_projection(Lattice(2), eq) == IntMatrix.zeros(2, 2)

    def test_summand_not_action_invariant(self):
        eq = EquivariantLattice(2, Lattice.full(2), self.SWAP)
        with pytest.raises(PreconditionError, match="not action-invariant"):
            find_equivariant_projection(Lattice.spanned_by([(1, 0)], 2), eq)
        # the diagonal is invariant, so the same lattice gets past both checks
        assert find_equivariant_projection(Lattice.spanned_by([(1, 1)], 2), eq) is None

    def test_summand_that_is_not_pure(self, monkeypatch):
        # twice the diagonal is invariant, but Z^2 / <(2, 2)> has torsion, so
        # it is refused before the Sylvester equation is set up
        def unreached(*args):
            raise AssertionError("a summand that is not pure reached the Sylvester solve")

        monkeypatch.setattr(cyclat.lattice_props, "_sylvester_solve", unreached)
        eq = EquivariantLattice(2, Lattice.full(2), self.SWAP)
        assert find_equivariant_projection(Lattice.spanned_by([(2, 2)], 2), eq) is None

    def test_matches_twist_condition(self):
        for text in ("triv(4)", "cyclicR(2,1)", "triv(2) + triv(2)"):
            m = build(parse_modspec(text), 2)
            for span in m.invariant_subgroups():
                pair = pair_of(m, span)
                found = find_equivariant_projection(pair.N0, pair.eq()) is not None
                assert found == check_t_condition(pair)


class TestDiagram:
    def test_equal_rows(self):
        m = build(CyclicR(2, 1), 2)
        report = inclusion_diagram(full_pair(m))
        assert report.condition_holds
        assert report.diagram is not None
        assert report.diagram.row.k == report.diagram.row0.k

    def test_refusal_with_witness(self):
        report = inclusion_diagram(r4_twist_pair())
        assert not report.condition_holds
        assert report.diagram is None
        assert report.impurity is not None and not report.impurity.pure

    def test_summand_inclusion(self):
        m = build(parse_modspec("triv(2) + cyclicR(2,1)"), 2)
        span = Lattice(3, IntMatrix.hstack(IntMatrix.from_cols([(1, 0, 0)]), m.rel.basis))
        report = inclusion_diagram(pair_of(m, span))
        assert report.condition_holds
        d = report.diagram
        assert d.column_map.cols == d.row0.n2.rank
        proj = d.kernel_projection
        assert proj @ proj == proj
