import hashlib
import itertools
import json
import math
import pathlib
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
from cyclat.intlinalg import IntMatrix, Lattice, inv_unimodular, snf
from cyclat.presentation import (
    GREEDY_ATTEMPTS,
    AugPresentation,
    EquivariantLattice,
    InvariantBasis,
    _CandidatePool,
    _constructive_basis,
    _extract_orbits,
    _greedy_basis,
    _spans_unit_lattice,
    _split_orbits,
    _unit,
    assemble_direct_sum,
    build_aug,
    cyclic_r_basis,
    cyclic_trivial_basis,
    find_invariant_basis,
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
    random_unimodular,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def mult_by(p, n, u):
    return FinMod(p, 1, Lattice.spanned_by([(n,)], 1), IntMatrix([[u]]))


def _sparse(v) -> dict[int, int]:
    """A dense vector as the sparse column {index: nonzero entry} InvariantBasis takes."""
    return {i: x for i, x in enumerate(v) if x}


def _basis_of_tuples(p, action, ambient, blocks, fixed) -> InvariantBasis:
    """An InvariantBasis of dense blocks and fixed vectors, each converted to a sparse column."""
    return InvariantBasis(
        p, action, ambient, [tuple(map(_sparse, blk)) for blk in blocks], list(map(_sparse, fixed))
    )


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


# the module shapes the perfbench cli session presents
_SESSION_SHAPES = [
    ("cyclicR(2,1)", 2),
    ("cyclicR(2,1)+triv(3)", 2),
    ("cyclicR(2,2)", 2),
    ("cyclicR(2,1)+triv(2)", 3),
    ("cyclicR(2,1)+triv(3)", 3),
    ("cyclicR(3,1)", 3),
    ("cyclicR(2,1)", 5),
    ("cyclicR(2,1)+triv(2)", 5),
]


class TestClosedFormKernel:
    """build_aug's closed-form Hermite basis against Lattice.preimage, and
    its certificate: each condition broken in turn must raise."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(0, 2**32))
    def test_random_modules_match_the_preimage(self, p, seed):
        m = random_module(random.Random(seed), p, max_order=64)
        pres = build_aug(m)
        want = m.rel.preimage(pres.pi_matrix)
        assert pres.N == want
        assert pres.N.pivot_rows == want.pivot_rows

    @pytest.mark.parametrize("spec,p", _SESSION_SHAPES, ids=[f"{s}-p{p}" for s, p in _SESSION_SHAPES])
    def test_session_shapes_match_the_preimage(self, spec, p):
        m = build(parse_modspec(spec), p)
        pres = build_aug(m)
        assert pres.N == m.rel.preimage(pres.pi_matrix)

    def tampered(self, monkeypatch, change):
        orig = cyclat.presentation._kernel_hermite
        monkeypatch.setattr(
            cyclat.presentation, "_kernel_hermite", lambda M, elements: change(orig(M, elements))
        )
        return build(parse_modspec("cyclicR(2,1)+triv(2)"), 3)

    def test_a_basis_out_of_hermite_shape_raises(self, monkeypatch):
        def unreduce(h):
            # the last row with a pivot above 1 gets that pivot added left of it
            rows = h.tolist()
            i = max(i for i, row in enumerate(rows) if row[i] > 1)
            rows[i][0] += rows[i][i]
            return IntMatrix(rows)

        m = self.tampered(monkeypatch, unreduce)
        with pytest.raises(InternalInvariantError, match="Hermite form"):
            build_aug(m)

    def test_a_basis_outside_the_kernel_raises(self, monkeypatch):
        # the identity has the Hermite shape, but pi of it is not in the relations
        m = self.tampered(monkeypatch, lambda h: IntMatrix.identity(h.rows))
        with pytest.raises(InternalInvariantError, match="outside the relations"):
            build_aug(m)

    def test_a_basis_of_too_low_rank_raises(self, monkeypatch):
        # H without its last column keeps the Hermite shape and lies in the kernel
        m = self.tampered(monkeypatch, lambda h: h.submatrix(range(h.rows), range(h.cols - 1)))
        with pytest.raises(InternalInvariantError, match="not of full rank"):
            build_aug(m)

    def test_a_basis_of_the_wrong_index_raises(self, monkeypatch):
        # 2 H keeps the Hermite shape and lies in the kernel, with index 2^m |M|
        m = self.tampered(monkeypatch, lambda h: 2 * h)
        with pytest.raises(InternalInvariantError, match="wrong index"):
            build_aug(m)


class TestNoncyclotomicVerdict:
    def test_split_basis_verdict_agrees_with_the_norm_kernel_search(self):
        from test_acceptance import module_pool

        split = 0
        for m in module_pool():
            eq = build_aug(m).kernel_pair()
            verdict = eq.is_noncyclotomic()
            if eq._basis is not None:
                split += 1
            assert verdict == (eq._search_witness() is None)
        assert split > 10

    def test_a_shapeless_lattice_keeps_the_search(self):
        m = build(parse_modspec("cyclicR(2,1)"), 2)
        rebased = FinMod(2, m.r, m.rel, m.aut)  # the same module without a shape
        eq = build_aug(rebased).kernel_pair()
        assert eq.is_noncyclotomic()
        assert eq._basis is None


@st.composite
def _rebased_trivial_modules(draw):
    """A direct sum of one to three triv(n) in a random unimodular basis, so
    it has no shape, at p in {2, 3, 5, 7}; its action is the identity."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ns = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(lambda ns: math.prod(ns) <= 48))
    leaves = tuple(TrivCyclic(n) for n in ns)
    m = build(leaves[0] if len(leaves) == 1 else DirectSum(leaves), p)
    w = random_unimodular(random.Random(draw(st.integers(0, 2**32))), m.r)
    return FinMod(p, m.r, m.rel.transform(w), w @ m.aut @ inv_unimodular(w))


class _DoubledColumn:
    """A lattice whose `basis` has column j doubled; everything else, solve
    included, is the true lattice's."""

    def __init__(self, lattice, j):
        cols = [dict(c) for c in lattice.basis.transpose()._ent]
        cols[j] = {i: 2 * x for i, x in cols[j].items()}
        self._lattice = lattice
        self.basis = IntMatrix._wrap(cols, len(cols), lattice.ambient).transpose()

    def __getattr__(self, name):
        return getattr(self._lattice, name)


class TestTrivialActionRoute:
    """A lattice the action fixes pointwise takes its canonical basis as
    fixed vectors, checked against the norm-kernel comparison and the greedy
    search it replaces."""

    @settings(max_examples=40, deadline=None)
    @given(_rebased_trivial_modules())
    def test_verdict_is_the_norm_kernel_comparison(self, m):
        eq = build_aug(m).kernel_pair()
        assert m.shape is None and eq.restricted() == IntMatrix.identity(eq.rank)
        assert eq.is_noncyclotomic() == (eq._search_witness() is None)
        assert eq._basis is not None and eq._basis.orbit_columns == ()

    @settings(max_examples=40, deadline=None)
    @given(_rebased_trivial_modules())
    def test_basis_is_the_greedy_output_for_every_seed(self, m):
        eq = build_aug(m).kernel_pair()
        k, got = find_invariant_basis(eq)
        assert k == 0
        for seed in range(4):
            want, attempts = _greedy_basis(eq, random.Random(seed))
            assert attempts == 1
            assert got.orbit_blocks == want.orbit_blocks == ()
            assert got.fixed_vectors == want.fixed_vectors

    @settings(max_examples=20, deadline=None)
    @given(_rebased_trivial_modules(), st.integers(0, 2**16))
    def test_a_tampered_canonical_basis_raises(self, m, pick):
        eq = build_aug(m).kernel_pair()
        eq.lattice = _DoubledColumn(eq.lattice, pick % eq.rank)
        with pytest.raises(InternalInvariantError, match="vectors do not span the lattice"):
            eq.is_noncyclotomic()


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

    def test_stabilized_is_built_once_per_depth(self):
        eq = EquivariantLattice(2, Lattice.full(2), SWAP)
        assert eq.stabilized(0) is eq
        assert eq.stabilized(1) is eq.stabilized(1)
        assert eq.stabilized(2) is not eq.stabilized(1)
        assert [eq.stabilized(k).rank for k in (1, 2)] == [4, 6]


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
    return _basis_of_tuples(pres.M.p, pres.action, pres.N, [], fixed)


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
    return _basis_of_tuples(p, pres.action, pres.N, blocks, fixed)


_ORACLE_LEAVES = [(TrivCyclic(n), p) for n in range(1, 10) for p in (2, 3)] + [
    (CyclicR(q, k), p)
    for p in (2, 3, 5, 7)
    for q in (2, 3, 5)
    for k in (1, 2)
    if q ** (k * p) <= 4096
]


class TestLeafBasisOracle:
    """The constructive basis of a one-leaf sum, and cyclic_trivial_basis and
    cyclic_r_basis that return it, against the two separate leaf
    constructions it replaced."""

    @pytest.mark.parametrize(
        "shape,p", _ORACLE_LEAVES, ids=[f"{s}-p{p}" for s, p in _ORACLE_LEAVES]
    )
    def test_same_basis_in_the_same_order(self, monkeypatch, shape, p):
        pres = build_aug(build(shape, p))
        got = _constructive_basis(pres.kernel)
        if isinstance(shape, TrivCyclic):
            leaf = cyclic_trivial_basis(shape.n, p)
        else:
            leaf = cyclic_r_basis(shape.q, shape.k, p)
        # got and leaf are verified; the reference's vectors need not be checked again
        monkeypatch.setattr(InvariantBasis, "verify", lambda self: None)
        reference = _trivial_basis if isinstance(shape, TrivCyclic) else _cyclic_r_basis
        want = reference(pres)
        for basis in (got, leaf):
            assert basis.orbit_blocks == want.orbit_blocks
            assert basis.fixed_vectors == want.fixed_vectors


class _SpansAnything:
    """A stand-in ambient lattice of Z^2 and rank 2 that any two vectors span:
    it gives every pair the identity as coordinates."""

    ambient = 2
    rank = 2

    def solve(self, b):
        return IntMatrix.identity(2)


class TestInvariantBasisVerify:
    """Each failure of InvariantBasis.verify, on Z^4 where the action at p = 3
    cycles e0 -> e1 -> e2 -> e0 and fixes e3."""

    ACTION = IntMatrix.unit_columns(4, [1, 2, 0, 3])
    E0, E1, E2, E3 = (_unit(4, i) for i in range(4))

    def make(self, blocks, fixed):
        return _basis_of_tuples(3, self.ACTION, Lattice.full(4), blocks, fixed)

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
        # basis's rank and the span check fires first; an ambient that any
        # two vectors span lets the period check see the block
        e0 = _unit(2, 0)
        with pytest.raises(InternalInvariantError, match="orbit block has period 1"):
            _basis_of_tuples(2, IntMatrix.identity(2), _SpansAnything(), [(e0, e0)], [])

    @pytest.mark.parametrize(
        "vector, message",
        [
            ({4: 1}, "index outside the ambient space"),
            ({-1: 1}, "index outside the ambient space"),
            ({3: 0}, "or a zero"),
        ],
        ids=["index-4", "index-minus-1", "stored-zero"],
    )
    def test_vector_outside_the_ambient_space(self, vector, message):
        e0, e1, e2 = (_sparse(v) for v in (self.E0, self.E1, self.E2))
        with pytest.raises(InternalInvariantError, match=message):
            InvariantBasis(3, self.ACTION, Lattice.full(4), [(e0, e1, e2)], [vector])


def _bases_of_the_pool_and_the_session():
    from test_acceptance import module_pool

    mods = module_pool() + [build(parse_modspec(spec), p) for spec, p in _SESSION_SHAPES]
    for m in mods:
        yield find_invariant_basis(build_aug(m).kernel_pair(), allow_stabilization=True)[1]


class TestSparseColumns:
    """Split bases are held as sparse columns; the dense accessors are built
    from them on each read."""

    def test_dense_accessors_equal_the_tuples_of_the_basis_matrix(self):
        for b in _bases_of_the_pool_and_the_session():
            # the tuples as IntMatrix.columns() builds them
            dense = b.matrix().columns()
            f = len(b.fixed_columns)
            assert b.vectors() == dense
            assert b.fixed_vectors == tuple(dense[:f])
            blocks = tuple(tuple(dense[i : i + b.p]) for i in range(f, len(dense), b.p))
            assert b.orbit_blocks == blocks
            # and the dense tuples go back to the same columns
            again = _basis_of_tuples(b.p, b.action, b.ambient, b.orbit_blocks, b.fixed_vectors)
            assert again.columns() == b.columns()


def test_the_58th_draw_keeps_its_pinned_basis():
    # the module the CI step splits: shapeless, 64 elements, k = 3 from the seeded search
    rng = random.Random(11)
    for _ in range(58):
        p = rng.choice([2, 3, 5])
        m = random_module(rng, p, max_order=64)
        rng.choice([1, 2])
    k, b = find_invariant_basis(build_aug(m).kernel_pair(), allow_stabilization=True)
    digest = hashlib.sha256(repr((b.orbit_blocks, b.fixed_vectors)).encode()).hexdigest()
    assert (p, m.order(), k) == (3, 64, 3)
    assert digest == "32a40b09d44c9f54977cc0b5d572833916e8325a911f79c6f09cf04f2689de1d"


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

    @pytest.mark.parametrize(
        "fixed, message",
        [
            ([{1: 2}, {0: 1}], "first fixed vector must be the zero-hat vector"),
            ([{0: 1}, {0: 1, 1: 2}], "basis vectors other than zero-hat must avoid it"),
        ],
        ids=["zero-hat-not-first", "zero-hat-in-another-vector"],
    )
    def test_assembly_convention_is_refused(self, fixed, message):
        # triv(2) at p = 2: 0-hat is index 0, and the kernel is spanned by (1, 0) and (0, 2)
        pres = build_aug(build(TrivCyclic(2), 2))
        basis = InvariantBasis(2, pres.action, pres.N, [], fixed)
        with pytest.raises(PreconditionError, match=message):
            assemble_direct_sum(pres, pres, basis, cyclic_trivial_basis(2, 2))


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
        z3 = Lattice.spanned_by([(3,)], 1)
        inverse_shift = IntMatrix.unit_columns(3, [2, 0, 1])  # e_i -> e_(i-1)
        wrong = [
            # Z/3 tagged as triv(2)
            FinMod(2, 1, z3, IntMatrix.identity(1), TrivCyclic(2)),
            # R/(3) at p = 3 tagged as cyclicR(3,1), but acted on by the inverse shift
            FinMod(3, 3, Lattice(3, 3 * IntMatrix.identity(3)), inverse_shift, CyclicR(3, 1)),
            # Z/3 tagged with the invalid leaf triv(0)
            FinMod(2, 1, z3, IntMatrix.identity(1), TrivCyclic(0)),
        ]
        for m in wrong:
            eq = build_aug(m).kernel_pair()
            # the constructive route must not be taken, nor raise
            assert _constructive_basis(eq) is None
            assert eq.is_noncyclotomic()
            k, b = find_invariant_basis(eq)
            assert k == 0
            assert b.ambient == eq.lattice and b.rank == m.order()

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
        s = stabilize_presentation(build_aug(build(TrivCyclic(2), 2)))
        assert s.k == 0
        assert s.n2.fixed_vectors == ((1, 0), (0, 1))
        assert [s.pi_matrix.col(i) for i in range(2)] == [(0,), (1,)]

    def test_r_mod_2(self):
        s = stabilize_presentation(build_aug(build(CyclicR(2, 1), 2)))
        assert s.k == 0
        assert sorted(s.n2.vectors()) == sorted(IntMatrix.identity(4).columns())

    def test_element_basis_lies_over_elements(self):
        # N2's basis is the unit basis, and pi sends unit i to elements[i]
        rng = random.Random(31)
        for _ in range(5):
            m = random_module(rng, 2, max_order=16)
            s = stabilize_presentation(build_aug(m))
            n = s.n2.rank
            assert sorted(s.n2.vectors()) == sorted(IntMatrix.identity(n).columns())
            for i, x in enumerate(m.enumerate()):
                assert m.reduce(s.pi_matrix.col(i)) == x

    def test_mult_by_4_on_z5(self):
        s = stabilize_presentation(build_aug(mult_by(2, 5, 4)))
        assert s.n1.rank == 5 + 2 * s.k
        assert s.n2.rank == 5 + 2 * s.k

    @pytest.mark.parametrize("spec, p", [("triv(2)", 2), ("cyclicR(2,1)", 2), ("triv(3)", 3)])
    def test_k_min_pads_n1_with_a_regular_block(self, spec, p):
        # the search needs no block here, so k_min = 1 takes the padding path
        m = build(parse_modspec(spec), p)
        aug = build_aug(m)
        k0, b0 = find_invariant_basis(aug.kernel_pair(), allow_stabilization=True)
        assert k0 == 0
        s = stabilize_presentation(aug, k_min=1)
        n = aug.size
        assert s.k == 1
        # N1 is N + R: N's split basis, then the unit vectors after the elements
        assert s.n1.ambient == Lattice(n + p, IntMatrix.block_diag(aug.N.basis, IntMatrix.identity(p)))
        assert s.n1.fixed_columns == b0.fixed_columns
        assert s.n1.orbit_columns == b0.orbit_columns + (tuple({n + i: 1} for i in range(p)),)
        assert sorted(s.n2.vectors()) == sorted(IntMatrix.identity(n + p).columns())
        assert s.n1.action == s.n2.action
        assert m.rel.solve(s.pi_matrix @ s.n1.ambient.basis) is not None

    @pytest.mark.parametrize(
        "vectors",
        [((2, 0), (0, 4)), ((2, 0), (0, 1)), ((1, 0),)],
        ids=["twice-the-kernel", "right-index-outside-the-kernel", "not-of-full-rank"],
    )
    def test_wrong_kernel_is_not_exact(self, monkeypatch, vectors):
        # triv(2) is presented by pi = [0 1], whose kernel is spanned by
        # (1, 0) and (0, 2); each planted basis breaks one exactness condition
        wrong = _basis_of_tuples(2, IntMatrix.identity(2), Lattice.spanned_by(vectors, 2), [], vectors)
        monkeypatch.setattr(cyclat.presentation, "find_invariant_basis", lambda *a, **kw: (0, wrong))
        with pytest.raises(InternalInvariantError, match="stabilized row is not exact"):
            stabilize_presentation(build_aug(build(TrivCyclic(2), 2)))


# ---------------------------------------------------------------------------
# the greedy basis search


def _greedy_kernels():
    """Kernels for the greedy search: seeded random_module draws, each also
    with its provenance stripped, and Z/n under multiplication by u."""
    rng = random.Random(19)
    for draw in range(40):
        p = rng.choice((2, 3, 5))
        eq = build_aug(random_module(rng, p, max_order=32)).kernel_pair()
        yield f"random_module draw {draw}", eq
        bare = EquivariantLattice(p, eq.lattice, eq.action)
        yield f"random_module draw {draw} without provenance", bare
    for p, n, u in ((2, 5, 4), (2, 9, 8), (3, 7, 2), (3, 13, 3), (5, 11, 3), (3, 31, 5)):
        yield f"Z/{n} with x -> {u}x at p = {p}", build_aug(mult_by(p, n, u)).kernel_pair()


def test_greedy_bases_match_their_golden():
    # the file was written by the search that ran one snf per candidate, and
    # is never regenerated: the block test must make the same decisions
    cases = []
    for name, eq in _greedy_kernels():
        k, b = find_invariant_basis(eq, allow_stabilization=True)
        cases.append({
            "kernel": name,
            "k": k,
            "orbit_blocks": [[list(v) for v in blk] for blk in b.orbit_blocks],
            "fixed_vectors": [list(v) for v in b.fixed_vectors],
        })
    text = "[\n" + ",\n".join(json.dumps(c, separators=(",", ":")) for c in cases) + "\n]\n"
    assert text == (GOLDEN / "greedy_bases.json").read_text()


def _snf_greedy(c, p, target, pool):
    """The greedy extraction deciding each candidate by one snf of chosen + orbit."""
    r = c.rows
    chosen, blocks, u = [], [], IntMatrix.identity(r)
    progress = True
    while progress and len(blocks) < target:
        progress = False
        for v in pool:
            if len(blocks) == target:
                break
            orb = [v]
            for _ in range(p - 1):
                orb.append(c.apply(orb[-1]))
            if orb[1] == orb[0]:
                continue
            res = snf(IntMatrix.from_cols(chosen + orb, rows=r))
            if res.rank != len(chosen) + p or any(d != 1 for d in res.diag[: res.rank]):
                continue
            chosen, u = chosen + orb, res.u
            blocks.append(tuple(orb))
            progress = True
    return (blocks, u) if len(blocks) == target else None


@st.composite
def _actions_and_pools(draw):
    """An order-p action on Z^r, a orbits' worth of regular blocks and b fixed
    coordinates, in random coordinates; a target and a pool of candidates."""
    p = draw(st.sampled_from([2, 3]))
    a, b = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    r = a * p + b
    blocks = [IntMatrix([[1 if i == (j + 1) % p else 0 for j in range(p)] for i in range(p)])] * a
    c = IntMatrix.block_diag(*blocks, IntMatrix.identity(b))
    if draw(st.booleans()):
        w = random_unimodular(random.Random(draw(st.integers(0, 2**16))), r)
        c = w @ c @ inv_unimodular(w)
    vector = st.tuples(*[st.integers(-2, 2)] * r)
    pool = draw(st.lists(vector, min_size=1, max_size=3 * r))
    return c, p, draw(st.integers(1, a)), pool


class TestGreedySearch:
    @settings(max_examples=150, deadline=None)
    @given(_actions_and_pools())
    def test_block_test_decides_as_the_smith_form_of_chosen_and_orbit(self, case):
        # a candidate is taken exactly when snf of chosen + orbit has full
        # rank and unit invariants, so both searches take the same orbits and
        # the certified snf of the final set hands on the same U
        c, p, target, pool = case
        assert _extract_orbits(c, p, target, pool) == _snf_greedy(c, p, target, pool)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.lists(st.tuples(*[st.integers(-3, 3)] * 3), max_size=6))
    def test_rows_span_exactly_when_the_smith_invariants_are_units(self, p, rows):
        rows = [v[:p] for v in rows]
        dicts = [{j: x for j, x in enumerate(v) if x} for v in rows]
        res = snf(IntMatrix(rows, shape=(len(rows), p)))
        assert _spans_unit_lattice(dicts, p) == (res.diag == (1,) * p)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32), st.integers(0, 40))
    def test_lazy_pool_reads_the_eager_pool(self, r, seed, reads):
        eager_rng, lazy_rng = random.Random(seed), random.Random(seed)
        eager = [_unit(r, i) for i in range(r)]
        eager += [tuple(eager_rng.randint(-2, 2) for _ in range(r)) for _ in range(4 * r)]
        pool = _CandidatePool(r, lazy_rng)
        assert list(itertools.islice(pool, reads)) == eager[:reads]
        pool.drain()
        assert lazy_rng.getstate() == eager_rng.getstate()
        assert list(pool) == eager

    def test_failed_attempts_leave_the_stream_of_eager_pools(self, monkeypatch):
        # each attempt reads three candidates and fails; the next attempt,
        # and the next k, must draw where whole pools drawn up front would
        def three_and_fail(c, p, target, pool):
            list(itertools.islice(pool, 3))

        monkeypatch.setattr(cyclat.presentation, "_extract_orbits", three_and_fail)
        rng, eager = random.Random(3), random.Random(3)
        found, attempts = _greedy_basis(EquivariantLattice(2, Lattice.full(2), SWAP), rng)
        assert (found, attempts) == (None, GREEDY_ATTEMPTS)
        for _ in range(GREEDY_ATTEMPTS * 4 * 2 * 2):
            eager.randint(-2, 2)
        assert rng.getstate() == eager.getstate()

    def test_an_extraction_of_no_orbit_draws_nothing(self):
        rng = random.Random(3)
        state = rng.getstate()
        eq = EquivariantLattice(2, Lattice.spanned_by([(1, 0), (0, 2)], 2), IntMatrix.identity(2))
        found, attempts = _greedy_basis(eq, rng)
        assert attempts == 1 and found.orbit_blocks == ()
        assert rng.getstate() == state

    def test_a_wrong_block_test_fails_the_smith_certificate(self, monkeypatch):
        monkeypatch.setattr(cyclat.presentation, "_spans_unit_lattice", lambda rows, p: True)
        c = IntMatrix([[0, 1], [1, 0]])
        with pytest.raises(InternalInvariantError, match="Smith form"):
            _extract_orbits(c, 2, 1, [(1, 1), (1, -1)])
