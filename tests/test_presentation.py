import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclat.presentation
from cyclat.errors import (
    InternalInvariantError,
    NotNoncyclotomic,
    PreconditionError,
    SearchExhausted,
)
from cyclat.intlinalg import IntMatrix, Lattice
from cyclat.presentation import (
    GREEDY_ATTEMPTS,
    AugPresentation,
    EquivariantLattice,
    InvariantBasis,
    _leaf_basis,
    _split_orbits,
    _unit,
    assemble_direct_sum,
    build_aug,
    cyclic_r_basis,
    cyclic_trivial_basis,
    find_invariant_basis,
    free_r_xi_window,
    stabilize_presentation,
)
from cyclat.zmod import (
    CyclicR,
    DirectSum,
    FinMod,
    TrivCyclic,
    build,
    direct_sum,
    parse_modspec,
    random_module,
)


def mult_by(p, n, u):
    return FinMod(p, 1, Lattice.spanned_by([(n,)], 1), IntMatrix([[u]]))


class TestBuildAug:
    def test_zero_module(self):
        pres = build_aug(build(TrivCyclic(1), 2))
        assert pres.size == 1
        assert pres.N == Lattice.full(1)

    def test_z2_trivial(self):
        pres = build_aug(build(TrivCyclic(2), 2))
        assert pres.N == Lattice.spanned_by([(1, 0), (0, 2)], 2)

    def test_r_mod_2_rank(self):
        pres = build_aug(build(CyclicR(2, 1), 2))
        assert pres.N.rank == 4

    def test_infinite_rejected(self):
        with pytest.raises(PreconditionError):
            build_aug(build(parse_modspec("freeR(1)"), 2))

    def test_kernel_maps_into_relations(self):
        rng = random.Random(11)
        for p in (2, 3):
            for _ in range(8):
                m = random_module(rng, p)
                pres = build_aug(m)
                for col in (pres.pi_matrix @ pres.N.basis).columns():
                    assert m.rel.member(col)
                assert pres.N.transform(pres.action) == pres.N


    def test_kernel_rejection_is_internal(self, monkeypatch):
        def reject(self, *args, **kwargs):
            raise PreconditionError("lattice is not action-invariant")

        monkeypatch.setattr(EquivariantLattice, "__init__", reject)
        with pytest.raises(InternalInvariantError):
            build_aug(build(TrivCyclic(2), 2))


SWAP = IntMatrix([[0, 1], [1, 0]])


class TestEquivariantLattice:
    def test_rejects_non_square_action(self):
        with pytest.raises(PreconditionError):
            EquivariantLattice(2, Lattice.full(2), IntMatrix([[0, 1]]))

    def test_rejects_action_of_wrong_order(self):
        with pytest.raises(PreconditionError):
            EquivariantLattice(3, Lattice.full(2), SWAP)

    def test_rejects_non_invariant_lattice(self):
        with pytest.raises(PreconditionError):
            EquivariantLattice(2, Lattice.spanned_by([(1, 0)], 2), SWAP)

    def test_restricted_is_the_action_in_lattice_coordinates(self):
        rng = random.Random(5)
        for p in (2, 3, 5):
            for _ in range(6):
                eq = build_aug(random_module(rng, p, max_order=32)).kernel_pair()
                basis = eq.lattice.basis
                assert basis @ eq.restricted() == eq.action @ basis

    def test_kernel_pair_is_built_once(self):
        pres = build_aug(build(CyclicR(2, 1), 2))
        assert pres.kernel_pair() is pres.kernel_pair()
        assert pres.kernel_pair().provenance is pres.M


class TestTrivialBasis:
    def test_z2(self):
        b = cyclic_trivial_basis(2, 2)
        assert b.orbit_blocks == ()
        assert b.fixed_vectors == ((1, 0), (0, 2))

    def test_z6_vectors(self):
        b = cyclic_trivial_basis(6, 2)
        assert b.rank == 6
        # xi_x = x-hat - x 1-hat for 2 <= x < 6, then 6 1-hat
        assert b.fixed_vectors[1] == (0, -2, 1, 0, 0, 0)
        assert b.fixed_vectors[-1] == (0, 6, 0, 0, 0, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10), st.sampled_from([2, 3, 5]))
    def test_always_a_basis(self, n, p):
        b = cyclic_trivial_basis(n, p)
        assert b.rank == n


class TestCyclicRBasis:
    def test_q2_k1_p2_exact(self):
        b = cyclic_r_basis(2, 1, 2)
        # elements order (0,0),(0,1),(1,0),(1,1); e_0 at index 2, e_1 at index 1
        assert b.fixed_vectors == ((1, 0, 0, 0), (0, -1, -1, 1))
        assert b.orbit_blocks == (((0, 0, 2, 0), (0, 2, 0, 0)),)

    def test_q3_k1_p2_shape(self):
        b = cyclic_r_basis(3, 1, 2)
        assert len(b.fixed_vectors) == 3
        assert len(b.orbit_blocks) == 3
        assert b.rank == 9

    def test_q_equals_p(self):
        b = cyclic_r_basis(3, 1, 3)
        assert b.rank == 27

    def test_shift_equivariance(self):
        b = cyclic_r_basis(2, 2, 2)
        m = build(CyclicR(2, 2), 2)
        pres = build_aug(m)
        for blk in b.orbit_blocks:
            for i, v in enumerate(blk):
                assert pres.action.apply(v) == blk[(i + 1) % 2]


def _trivial_basis(pres: AugPresentation) -> InvariantBasis:
    """Kernel basis of the presentation of Z/n with trivial action.

    {0-hat} plus {x-hat - x 1-hat : 2 <= x < n} plus {n 1-hat}; every
    vector is fixed.
    """
    n = m = pres.size
    fixed = [_unit(m, pres.index((0,)))]
    one = pres.index((1,)) if n > 1 else None
    for x in range(2, n):
        v = [0] * m
        v[pres.index((x,))] += 1
        v[one] -= x
        fixed.append(tuple(v))
    if n > 1:
        fixed.append(tuple(n if i == one else 0 for i in range(m)))
    return InvariantBasis(pres.M.p, pres.action, pres.N, [], fixed)


def _cyclic_r_basis(pres: AugPresentation) -> InvariantBasis:
    """Kernel basis of the presentation of R/(q^k).

    One free orbit {q^k e_i-hat} plus, for every element x outside the
    generator orbit, xi_x = x-hat - sum x_i e_i-hat.  The action sends
    xi_x to xi of the shifted element, so the xi split into orbits and
    fixed vectors along the element orbits.
    """
    p, shape = pres.M.p, pres.M.shape
    m = pres.size
    gen_idx = [pres.index(_unit(p, i)) for i in range(p)]
    gens = {tuple(_unit(p, i)) for i in range(p)}

    def xi(x: tuple[int, ...]) -> tuple[int, ...]:
        v = [0] * m
        v[pres.index(x)] += 1
        for i, c in enumerate(x):
            v[gen_idx[i]] -= c
        return tuple(v)

    fixed, blocks = _split_orbits((o for o in pres.M.orbits() if o[0] not in gens), xi)
    qk = shape.q ** shape.k
    blocks.append(tuple(tuple(qk if j == gen_idx[i] else 0 for j in range(m)) for i in range(p)))
    # xi_0 is 0-hat and lands first because enumerate() lists 0 first
    return InvariantBasis(p, pres.action, pres.N, blocks, fixed)


_ORACLE_LEAVES = [(TrivCyclic(n), p) for n in range(1, 10) for p in (2, 3)] + [
    (CyclicR(q, k), p)
    for p in (2, 3, 5, 7)
    for q in (2, 3, 5)
    for k in (1, 2)
    if q ** (k * p) <= 4096
]


class TestLeafBasisOracle:
    """_leaf_basis against the two separate leaf constructions it replaced."""

    @pytest.mark.parametrize(
        "shape,p", _ORACLE_LEAVES, ids=[f"{s}-p{p}" for s, p in _ORACLE_LEAVES]
    )
    def test_same_basis_in_the_same_order(self, monkeypatch, shape, p):
        pres = build_aug(build(shape, p))
        got = _leaf_basis(pres)
        # got is verified; the reference's vectors need not be checked again
        monkeypatch.setattr(InvariantBasis, "verify", lambda self: None)
        reference = _trivial_basis if isinstance(shape, TrivCyclic) else _cyclic_r_basis
        want = reference(pres)
        assert got.orbit_blocks == want.orbit_blocks
        assert got.fixed_vectors == want.fixed_vectors


class _SpansAnything:
    """A stand-in ambient lattice of Z^2 and rank 2 that every span equals."""

    ambient = 2
    rank = 2

    def __eq__(self, other):
        return True

    __hash__ = None


class TestInvariantBasisVerify:
    """Each failure of InvariantBasis.verify, on Z^4 where the action at p = 3
    cycles e0 -> e1 -> e2 -> e0 and fixes e3."""

    ACTION = IntMatrix.unit_columns(4, [1, 2, 0, 3])
    E0, E1, E2, E3 = (_unit(4, i) for i in range(4))

    def make(self, blocks, fixed):
        return InvariantBasis(3, self.ACTION, Lattice.full(4), blocks, fixed)

    def test_valid_split(self):
        basis = self.make([(self.E0, self.E1, self.E2)], [self.E3])
        assert basis.summary() == "1 free orbit(s) + 1 fixed"

    def test_block_rotated_the_wrong_way(self):
        with pytest.raises(InternalInvariantError, match="orbit block is not a p-cycle"):
            self.make([(self.E0, self.E2, self.E1)], [self.E3])

    def test_fixed_vector_that_moves(self):
        # e0 + e3 goes to e1 + e3; the vectors still span Z^4
        with pytest.raises(InternalInvariantError, match="fixed vector moves under the action"):
            self.make([(self.E0, self.E1, self.E2)], [(1, 0, 0, 1)])

    def test_blocks_are_checked_before_fixed_vectors(self):
        with pytest.raises(InternalInvariantError, match="orbit block is not a p-cycle"):
            self.make([(self.E0, self.E2, self.E1)], [(1, 0, 0, 1)])

    def test_doubled_vector_does_not_span(self):
        with pytest.raises(InternalInvariantError, match="vectors do not span the lattice"):
            self.make([(self.E0, self.E1, self.E2)], [(0, 0, 0, 2)])

    def test_block_of_the_wrong_length(self):
        with pytest.raises(InternalInvariantError, match="orbit block of the wrong length"):
            self.make([(self.E0, self.E1, self.E2, self.E3)], [])

    def test_period_one_block(self):
        # a block (v, v) repeats a vector, so it never spans a lattice of the
        # basis's rank and the span check fires first; an ambient that every
        # span equals lets the period check see the block
        e0 = _unit(2, 0)
        with pytest.raises(InternalInvariantError, match="orbit block has period 1"):
            InvariantBasis(2, IntMatrix.identity(2), _SpansAnything(), [(e0, e0)], [])


class TestFreeWindow:
    def test_basic_window(self):
        window, mat = free_r_xi_window(2, [(1, 1), (2, 1), (1, 2)])
        assert window[:2] == [(1, 0), (0, 1)]
        assert mat.col(0) == (-1, -1, 1, 0, 0)

    def test_equivariance_on_closed_window(self):
        window, mat = free_r_xi_window(2, [(2, 1), (1, 2)])
        pos = {x: i for i, x in enumerate(window)}
        # the shift swaps the two generators and swaps (2,1) <-> (1,2)
        perm = {0: 1, 1: 0, 2: 3, 3: 2}
        shifted = tuple(mat.col(0)[perm[i]] for i in range(len(window)))
        # xi columns follow the xs order: column of (1,2) sits after the generators
        assert shifted == mat.col(pos[(1, 2)] - 2)

    def test_rejects_generators_and_duplicates(self):
        with pytest.raises(PreconditionError):
            free_r_xi_window(2, [(1, 0)])
        with pytest.raises(PreconditionError):
            free_r_xi_window(2, [(1, 1), (1, 1)])

    def test_empty_window(self):
        window, mat = free_r_xi_window(3, [])
        assert len(window) == 3
        assert mat.cols == 0


class TestAssemble:
    def test_two_z2_summands(self):
        p1 = build_aug(build(TrivCyclic(2), 2))
        b1 = cyclic_trivial_basis(2, 2)
        b = assemble_direct_sum(p1, p1, b1, b1)
        assert b.rank == 4
        assert b.orbit_blocks == ()
        # the single cross vector: (1,1)-hat - (1,0)-hat - (0,1)-hat
        msum = build(parse_modspec("triv(2) + triv(2)"), 2)
        i11, i10, i01 = (msum.index_of(v) for v in ((1, 1), (1, 0), (0, 1)))
        xi = [0] * 4
        xi[i11], xi[i10], xi[i01] = 1, -1, -1
        assert tuple(xi) in b.fixed_vectors

    def test_degenerate_summand(self):
        p1 = build_aug(build(CyclicR(2, 1), 2))
        b1 = cyclic_r_basis(2, 1, 2)
        p0 = build_aug(build(TrivCyclic(1), 2))
        b0 = cyclic_trivial_basis(1, 2)
        b = assemble_direct_sum(p1, p0, b1, b0)
        assert b.rank == 4

    def test_rank_is_product(self):
        cases = [
            (TrivCyclic(3), CyclicR(2, 1), 2),
            (CyclicR(2, 1), CyclicR(3, 1), 2),
            (TrivCyclic(4), TrivCyclic(5), 3),
            (CyclicR(2, 1), TrivCyclic(7), 3),
        ]
        for s1, s2, p in cases:
            pr1, pr2 = build_aug(build(s1, p)), build_aug(build(s2, p))
            b1 = (
                cyclic_trivial_basis(s1.n, p)
                if isinstance(s1, TrivCyclic)
                else cyclic_r_basis(s1.q, s1.k, p)
            )
            b2 = (
                cyclic_trivial_basis(s2.n, p)
                if isinstance(s2, TrivCyclic)
                else cyclic_r_basis(s2.q, s2.k, p)
            )
            b = assemble_direct_sum(pr1, pr2, b1, b2)
            assert b.rank == pr1.size * pr2.size

    def test_mismatched_basis_rejected(self):
        p1 = build_aug(build(TrivCyclic(2), 2))
        p2 = build_aug(build(TrivCyclic(3), 2))
        b2 = cyclic_trivial_basis(3, 2)
        with pytest.raises(PreconditionError):
            assemble_direct_sum(p1, p2, b2, b2)


def _fold_leaf_basis(leaf, p: int) -> InvariantBasis:
    if isinstance(leaf, TrivCyclic):
        return cyclic_trivial_basis(leaf.n, p)
    return cyclic_r_basis(leaf.q, leaf.k, p)


def _seeded_fold_shapes(count: int, seed: int = 7, max_order: int = 64):
    """Distinct shapes of 1 to 3 leaves, Z/1 among them, at p in {2, 3, 5} and of order <= max_order."""
    rng = random.Random(seed)
    leaves = [TrivCyclic(n) for n in range(1, 5)] + [CyclicR(2, 1), CyclicR(3, 1)]
    shapes = [(parse_modspec("triv(1)"), 2), (parse_modspec("triv(1) + cyclicR(2,1) + triv(1)"), 3)]
    while len(shapes) < count:
        p = rng.choice((2, 3, 5))
        parts = tuple(rng.choice(leaves) for _ in range(rng.randint(1, 3)))
        shape = parts[0] if len(parts) == 1 else DirectSum(parts)
        if (shape, p) not in shapes and build(shape, p).order() <= max_order:
            shapes.append((shape, p))
    return shapes


_FOLD_SHAPES = _seeded_fold_shapes(32)


class TestConstructiveBasisFoldOracle:
    """The one-pass constructive basis against the left fold of
    assemble_direct_sum over the separately presented leaf bases."""

    @pytest.mark.parametrize("shape,p", _FOLD_SHAPES, ids=[f"{s}-p{p}" for s, p in _FOLD_SHAPES])
    def test_same_basis_in_the_same_order(self, shape, p):
        leaves = shape.parts if isinstance(shape, DirectSum) else (shape,)
        pres = build_aug(build(leaves[0], p))
        want = _fold_leaf_basis(leaves[0], p)
        for leaf in leaves[1:]:
            nxt = build_aug(build(leaf, p))
            want = assemble_direct_sum(pres, nxt, want, _fold_leaf_basis(leaf, p))
            pres = build_aug(direct_sum(pres.M, nxt.M))
        k, got = find_invariant_basis(build_aug(build(shape, p)).kernel_pair())
        assert k == 0
        assert got.orbit_blocks == want.orbit_blocks
        assert got.fixed_vectors == want.fixed_vectors

    def test_shapes_cover_each_leaf_count_and_p(self):
        counts = {len(s.parts) if isinstance(s, DirectSum) else 1 for s, _ in _FOLD_SHAPES}
        assert counts == {1, 2, 3}
        assert {p for _, p in _FOLD_SHAPES} == {2, 3, 5}


class TestFindInvariantBasis:
    def test_constructive_route(self):
        m = build(parse_modspec("triv(2) + cyclicR(2,1)"), 2)
        k, b = find_invariant_basis(build_aug(m).kernel_pair())
        assert k == 0
        assert b.rank == 8

    def test_greedy_on_regular_lattice(self):
        eq = EquivariantLattice(2, Lattice.full(2), IntMatrix([[0, 1], [1, 0]]))
        k, b = find_invariant_basis(eq)
        assert k == 0
        assert len(b.orbit_blocks) == 1
        assert len(b.fixed_vectors) == 0

    def test_greedy_without_provenance(self):
        m = mult_by(2, 5, 4)
        k, b = find_invariant_basis(build_aug(m).kernel_pair(), allow_stabilization=True)
        assert 0 <= k <= 4
        assert b.rank == 5 + 2 * k

    def test_not_noncyclotomic(self):
        eq = EquivariantLattice(2, Lattice.full(1), IntMatrix([[-1]]))
        with pytest.raises(NotNoncyclotomic):
            find_invariant_basis(eq)

    def test_exhausted_search_reports_attempts_and_k(self, monkeypatch):
        monkeypatch.setattr(cyclat.presentation, "_extract_orbits", lambda *args: None)
        eq = EquivariantLattice(2, Lattice.full(2), SWAP)
        with pytest.raises(SearchExhausted) as exc:
            find_invariant_basis(eq, allow_stabilization=True, k_max=2)
        assert exc.value.attempts == 3 * GREEDY_ATTEMPTS
        assert exc.value.k == 2

    def test_wrong_shape_tag_falls_back_to_search(self):
        # Z/3 tagged as triv(2): the constructive route must not be taken
        m = FinMod(2, 1, Lattice.spanned_by([(3,)], 1), IntMatrix.identity(1), TrivCyclic(2))
        eq = build_aug(m).kernel_pair()
        k, b = find_invariant_basis(eq)
        assert k == 0
        assert b.ambient == eq.lattice and b.rank == 3

    def test_random_kernels_split(self):
        rng = random.Random(23)
        for p in (2, 3):
            for _ in range(6):
                m = random_module(rng, p, max_order=32)
                eq = build_aug(m).kernel_pair()
                k, b = find_invariant_basis(eq, allow_stabilization=True)
                assert b.rank == m.order() + k * p


class TestStabilize:
    def test_z2_trivial(self):
        s = stabilize_presentation(build(TrivCyclic(2), 2))
        assert s.k == 0
        assert s.n2.fixed_vectors == ((1, 0), (0, 1))
        assert s.cover == (0, 1)

    def test_r_mod_2(self):
        s = stabilize_presentation(build(CyclicR(2, 1), 2))
        assert s.k == 0
        assert len(s.cover) == 4
        assert len(set(s.cover)) == 4

    def test_cover_lies_over_elements(self):
        rng = random.Random(31)
        for _ in range(5):
            m = random_module(rng, 2, max_order=16)
            s = stabilize_presentation(m)
            vecs = s.n2.vectors()
            pres_elems = m.enumerate()
            for i, x in enumerate(pres_elems):
                assert m.reduce(s.pi_matrix.apply(vecs[s.cover[i]])) == x

    def test_mult_by_4_on_z5(self):
        s = stabilize_presentation(mult_by(2, 5, 4))
        assert s.n1.rank == 5 + 2 * s.k
        assert s.n2.rank == 5 + 2 * s.k

    @pytest.mark.parametrize(
        "vectors",
        [((2, 0), (0, 4)), ((2, 0), (0, 1))],
        ids=["twice-the-kernel", "right-index-outside-the-kernel"],
    )
    def test_wrong_kernel_is_not_exact(self, monkeypatch, vectors):
        # triv(2) is presented by pi = [0 1], whose kernel is spanned by
        # (1, 0) and (0, 2); each planted basis breaks one exactness condition
        wrong = InvariantBasis(2, IntMatrix.identity(2), Lattice.spanned_by(vectors, 2), [], vectors)
        monkeypatch.setattr(cyclat.presentation, "find_invariant_basis", lambda *a, **kw: (0, wrong))
        with pytest.raises(InternalInvariantError, match="stabilized row is not exact"):
            stabilize_presentation(build(TrivCyclic(2), 2))
