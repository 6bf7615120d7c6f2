"""Presentations of finite modules by free abelian groups.

A finite module M over the order-p group ring sits in an exact row

    0 -> N -> Z^M -> M -> 0

where Z^M is free on the elements of M (basis written x-hat), the middle
map sends x-hat to x, and the group acts on Z^M by permuting the basis.
This module builds that row, constructs explicit bases of N that split
into free orbits and fixed vectors, and stabilizes by regular summands
when a direct search needs the extra room.  For a direct sum of Z/n and
R/(q^k) leaves the split basis is read off in one pass over the module's
own element orbits: 0-hat, each leaf's vectors, and the cross vectors
that tie each leaf to the leaves before it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .cyclo_ring import generator, norm
from .errors import (
    InternalInvariantError,
    NotNoncyclotomic,
    PreconditionError,
    SearchExhausted,
)
from .intlinalg import IntMatrix, Lattice, column_rank, kernel_basis, snf, solve_columns
from .zmod import CyclicR, DirectSum, FinMod, TrivCyclic, build, direct_sum

GREEDY_ATTEMPTS = 6
DEFAULT_K_MAX = 4
_UNDECIDED = object()  # an EquivariantLattice's witness before its first search


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def _vector(n: int, terms) -> tuple[int, ...]:
    """The length-n vector sum c e_i over the pairs (i, c) in terms; repeated i add up."""
    v = [0] * n
    for i, c in terms:
        v[i] += c
    return tuple(v)


def _split_orbits(orbits, vec):
    """Fixed vectors and orbit blocks of vec over element orbits of size 1 and p."""
    fixed, blocks = [], []
    for orb in orbits:
        if len(orb) == 1:
            fixed.append(vec(orb[0]))
        else:
            blocks.append(tuple(vec(x) for x in orb))
    return fixed, blocks


def _regular_blocks(p: int, k: int, action: IntMatrix, basis: IntMatrix):
    """A lattice with its action, direct-summed with k regular representations of C_p.

    Takes the action and a basis of the lattice; returns the grown action,
    the grown lattice and the k unit-vector orbits spanning the new blocks.
    """
    old = action.rows
    total = old + k * p
    grown = IntMatrix.block_diag(action, *([generator(p).matrix()] * k))
    span = Lattice(total, IntMatrix.block_diag(basis, IntMatrix.identity(k * p)))
    orbits = [tuple(_unit(total, old + j * p + i) for i in range(p)) for j in range(k)]
    return grown, span, orbits


class EquivariantLattice:
    """A sublattice of Z^n kept stable by an ambient action of order p.

    `provenance` optionally records the finite module whose presentation
    kernel this is; the basis search uses its shape to take the
    constructive route instead of searching, without presenting the module
    again.
    """

    __slots__ = ("p", "lattice", "action", "provenance", "_restricted", "_witness")

    def __init__(self, p: int, lattice: Lattice, action: IntMatrix, provenance=None):
        n = lattice.ambient
        if action.rows != n or action.cols != n:
            raise PreconditionError("action must be square on the ambient space")
        if action.pow(p) != IntMatrix.identity(n):
            raise PreconditionError("action order must divide p")
        # with action^p = 1, mapping the lattice into itself maps it onto itself
        restricted = lattice.solve(action @ lattice.basis)
        if restricted is None:
            raise PreconditionError("lattice is not action-invariant")
        self.p = p
        self.lattice = lattice
        self.action = action
        self.provenance = provenance
        self._restricted = restricted
        self._witness = _UNDECIDED

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def restricted(self) -> IntMatrix:
        """The action written in the lattice's own basis."""
        return self._restricted

    def is_noncyclotomic(self) -> bool:
        """Kernel of the norm operator on the lattice equals the twist image.

        Both sides are computed in basis coordinates, so the comparison is
        an exact lattice equality in Z^rank.
        """
        return self.noncyclotomic_witness() is None

    def noncyclotomic_witness(self) -> Optional[tuple[int, ...]]:
        """A norm-kernel basis vector outside the twist image, or None.

        Given in lattice coordinates.  The twist image always sits inside
        the norm kernel, so the two differ exactly when some basis vector
        of the kernel falls outside.  Searched on the first call and kept:
        the lattice and its action never change.
        """
        if self._witness is _UNDECIDED:
            self._witness = self._search_witness()
        return self._witness

    def _search_witness(self) -> Optional[tuple[int, ...]]:
        c = self.restricted()
        r = c.rows
        twist = Lattice(r, c - IntMatrix.identity(r))
        kernel = kernel_basis(norm(self.p).on(c))
        if kernel == twist:
            return None
        for v in kernel.basis.columns():
            if not twist.member(v):
                return v
        raise InternalInvariantError("norm kernel differs from the twist image without a witness")

    def stabilized(self, k: int) -> "EquivariantLattice":
        """Direct sum with k regular-representation blocks."""
        if k == 0:
            return self
        action, lattice, _ = _regular_blocks(self.p, k, self.action, self.lattice.basis)
        return EquivariantLattice(self.p, lattice, action)


class AugPresentation:
    """The row 0 -> N -> Z^M -> M -> 0 in explicit coordinates.

    elements fixes the basis order of Z^M; pi_matrix has the element
    representatives as columns; kernel is N with the action that permutes
    the basis the way the automorphism permutes M.
    """

    __slots__ = ("M", "elements", "pi_matrix", "kernel", "N", "action")

    def __init__(self, M: FinMod, elements, pi_matrix, kernel: EquivariantLattice):
        self.M = M
        self.elements = elements
        self.pi_matrix = pi_matrix
        self.kernel = kernel
        self.N = kernel.lattice
        self.action = kernel.action

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, x: Sequence[int]) -> int:
        return self.M.index_of(x)

    def hat(self, x: Sequence[int]) -> tuple[int, ...]:
        return _unit(self.size, self.index(x))

    @property
    def zero_index(self) -> int:
        return self.index((0,) * self.M.r)

    def combination(self, terms) -> tuple[int, ...]:
        """The vector sum c x-hat over the pairs (x, c) in terms; x any vector of M."""
        return _vector(self.size, [(self.index(x), c) for x, c in terms])

    def kernel_pair(self) -> EquivariantLattice:
        return self.kernel


def build_aug(M: FinMod) -> AugPresentation:
    """Present a finite module by the free abelian group on its elements."""
    if not M.is_finite():
        raise PreconditionError("only finite modules have a finite element basis")
    elements = tuple(M.enumerate())
    pi = IntMatrix.from_cols(elements, rows=M.r)
    m = len(elements)
    action = IntMatrix.unit_columns(m, M.action_permutation())
    n = M.rel.preimage(pi)
    if n.rank != m:
        raise InternalInvariantError("presentation kernel must have full rank")
    if not n.member(_unit(m, M.index_of((0,) * M.r))):
        raise InternalInvariantError("zero-hat must lie in the kernel")
    try:
        kernel = EquivariantLattice(M.p, n, action, provenance=M)
    except PreconditionError as exc:
        raise InternalInvariantError(f"presentation kernel rejected: {exc}") from exc
    return AugPresentation(M, elements, pi, kernel)


class InvariantBasis:
    """A basis split into p-cycles of the action and fixed vectors.

    The stored order is fixed vectors first, then the orbit blocks in
    order.  Every constructor in this module verifies the split before
    handing the object out.
    """

    __slots__ = ("p", "action", "ambient", "orbit_blocks", "fixed_vectors")

    def __init__(self, p, action, ambient, orbit_blocks, fixed_vectors):
        self.p = p
        self.action = action
        self.ambient = ambient
        self.orbit_blocks = tuple(tuple(tuple(v) for v in blk) for blk in orbit_blocks)
        self.fixed_vectors = tuple(tuple(v) for v in fixed_vectors)
        self.verify()

    def vectors(self) -> list[tuple[int, ...]]:
        out = list(self.fixed_vectors)
        for blk in self.orbit_blocks:
            out.extend(blk)
        return out

    @property
    def rank(self) -> int:
        return len(self.fixed_vectors) + self.p * len(self.orbit_blocks)

    def matrix(self) -> IntMatrix:
        return IntMatrix.from_cols(self.vectors(), rows=self.ambient.ambient)

    def verify(self) -> None:
        vecs = self.vectors()
        n = self.ambient.ambient
        if any(len(v) != n for v in vecs):
            raise InternalInvariantError("basis vector outside the ambient space")
        if len(vecs) != self.ambient.rank:
            raise InternalInvariantError("basis size differs from the lattice rank")
        mat = IntMatrix.from_cols(vecs, rows=n)
        if Lattice(n, mat) != self.ambient:
            raise InternalInvariantError("vectors do not span the lattice")
        # one product moves every vector: each block vector must land on the
        # next one of its block, and each fixed vector must stay put
        moved = (self.action @ mat).columns()
        start = len(self.fixed_vectors)
        for blk in self.orbit_blocks:
            if len(blk) != self.p:
                raise InternalInvariantError("orbit block of the wrong length")
            if blk[0] == blk[(1 % self.p)] and self.p > 1:
                raise InternalInvariantError("orbit block has period 1")
            if any(moved[start + i] != blk[(i + 1) % self.p] for i in range(self.p)):
                raise InternalInvariantError("orbit block is not a p-cycle")
            start += self.p
        if moved[: len(self.fixed_vectors)] != list(self.fixed_vectors):
            raise InternalInvariantError("fixed vector moves under the action")

    def summary(self) -> str:
        return f"{len(self.orbit_blocks)} free orbit(s) + {len(self.fixed_vectors)} fixed"


def _check_assembly_convention(basis: InvariantBasis, pres: AugPresentation) -> None:
    # assembly needs the zero-hat vector isolated: first fixed vector is
    # exactly 0-hat, every other basis vector has zero 0-hat coefficient
    zi = pres.zero_index
    if not basis.fixed_vectors or basis.fixed_vectors[0] != _unit(pres.size, zi):
        raise PreconditionError("first fixed vector must be the zero-hat vector")
    if any(v[zi] != 0 for v in basis.vectors()[1:]):
        raise PreconditionError("basis vectors other than zero-hat must avoid it")


def cyclic_trivial_basis(n: int, p: int) -> InvariantBasis:
    """Kernel basis for Z/n with trivial action."""
    return _leaf_basis(build_aug(build(TrivCyclic(n), p)))


def cyclic_r_basis(q: int, k: int, p: int) -> InvariantBasis:
    """Kernel basis for the rank-one quotient R/(q^k)."""
    return _leaf_basis(build_aug(build(CyclicR(q, k), p)))


def _leaf_basis(pres: AugPresentation) -> InvariantBasis:
    """Kernel basis of the presentation of a leaf, Z/n or R/(q^k): 0-hat, then _leaf_vectors."""
    M = pres.M
    fixed, blocks = _leaf_vectors(M, M.orbits(), 0, M.r)
    return InvariantBasis(M.p, pres.action, pres.N, blocks, [pres.hat((0,) * M.r)] + fixed)


def _leaf_vectors(M: FinMod, orbits, s: int, e: int):
    """Fixed vectors and orbit blocks of the leaf on coordinates [s, e) of M, 0-hat left out.

    The leaf is Z^(e-s) / d Z^(e-s) with generators g_i = e_i reduced: one
    for Z/n (d = n), the p shifts for R/(q^k) (d = q^k).  First xi_x =
    x-hat - sum x_i g_i-hat for every nonzero leaf element x outside the
    generators, split along the element orbits; then d g_i-hat, one fixed
    vector for Z/n and one free orbit for R/(q^k).  Z/1 has only the
    element 0, which is its generator, so it adds nothing.  The vectors
    are in M's element coordinates; orbits is M.orbits().
    """
    m = len(M.enumerate())
    gens = [M.reduce(_unit(M.r, i)) for i in range(s, e)]
    gen_idx = [M.index_of(g) for g in gens]
    d = M.rel.basis[s, s]

    def xi(x: tuple[int, ...]) -> tuple[int, ...]:
        return _vector(m, [(M.index_of(x), 1)] + [(g, -c) for g, c in zip(gen_idx, x[s:e])])

    own = (
        o for o in orbits
        if any(o[0][s:e]) and not any(o[0][:s]) and not any(o[0][e:]) and o[0] not in gens
    )
    fixed, blocks = _split_orbits(own, xi)
    if any(gens[0]):  # the generator of Z/1 is 0
        gen_fixed, gen_blocks = _split_orbits([gen_idx], lambda i: _vector(m, [(i, d)]))
        fixed += gen_fixed
        blocks += gen_blocks
    return fixed, blocks


def _cross_vectors(M: FinMod, orbits, s: int, e: int):
    """Fixed vectors and orbit blocks tying coordinates [s, e) of M to [0, s).

    One xi_x = x-hat - (x[:s], 0)-hat - (0, x[s:e], 0)-hat for each element
    x supported on [0, e) with both parts nonzero; none when s = 0.  The
    vectors are in M's element coordinates; orbits is M.orbits().
    """
    m = len(M.enumerate())
    zero = (0,) * M.r

    def xi(x: tuple[int, ...]) -> tuple[int, ...]:
        left = x[:s] + zero[s:]
        right = zero[:s] + x[s:e] + zero[e:]
        return _vector(m, [(M.index_of(x), 1), (M.index_of(left), -1), (M.index_of(right), -1)])

    crossing = (o for o in orbits if any(o[0][:s]) and any(o[0][s:e]) and not any(o[0][e:]))
    return _split_orbits(crossing, xi)


def free_r_xi_window(p: int, xs: Sequence[Sequence[int]]):
    """Windowed kernel vectors for the free rank-one module.

    The module is Z^p with the cyclic shift; its elements cannot all be
    listed, so the caller picks finitely many x (none of them a standard
    generator) and gets xi_x = x-hat - sum x_i e_i-hat over the index
    window consisting of the generators followed by the requested x.
    Returns (window, matrix of xi columns); independence is verified.
    """
    gens = [_unit(p, i) for i in range(p)]
    seen = set(gens)
    xs = [tuple(x) for x in xs]
    for x in xs:
        if len(x) != p:
            raise PreconditionError("window element of the wrong length")
        if x in seen:
            raise PreconditionError("window elements must be distinct non-generators")
        seen.add(x)
    window = gens + xs
    pos = {x: i for i, x in enumerate(window)}
    cols = [_vector(len(window), [(pos[x], 1)] + [(i, -c) for i, c in enumerate(x)]) for x in xs]
    mat = IntMatrix.from_cols(cols, rows=len(window))
    if column_rank(mat) != len(cols):
        raise InternalInvariantError("window vectors must be independent")
    return window, mat


def assemble_direct_sum(
    p1: AugPresentation,
    p2: AugPresentation,
    b1: InvariantBasis,
    b2: InvariantBasis,
) -> InvariantBasis:
    """Kernel basis of a direct sum from kernel bases of the summands.

    Z 0-hat, the two embedded bases with their zero-hats dropped, and the
    cross vectors of the sum (see _cross_vectors).
    """
    if p1.M.p != p2.M.p:
        raise PreconditionError("summands live over different group orders")
    if b1.ambient != p1.N or b2.ambient != p2.N:
        raise PreconditionError("basis does not present the matching kernel")
    _check_assembly_convention(b1, p1)
    _check_assembly_convention(b2, p2)

    psum = build_aug(direct_sum(p1.M, p2.M))
    msum, m = psum.M, psum.size
    r1 = p1.M.r
    e1 = IntMatrix.unit_columns(m, [psum.index(tuple(x) + (0,) * p2.M.r) for x in p1.elements])
    e2 = IntMatrix.unit_columns(m, [psum.index((0,) * r1 + tuple(x)) for x in p2.elements])

    fixed = [_unit(m, psum.zero_index)]
    fixed += [e1.apply(v) for v in b1.fixed_vectors[1:]]
    fixed += [e2.apply(v) for v in b2.fixed_vectors[1:]]
    blocks = [tuple(e1.apply(v) for v in blk) for blk in b1.orbit_blocks]
    blocks += [tuple(e2.apply(v) for v in blk) for blk in b2.orbit_blocks]
    cross_fixed, cross_blocks = _cross_vectors(msum, msum.orbits(), r1, msum.r)
    return InvariantBasis(msum.p, psum.action, psum.N, blocks + cross_blocks, fixed + cross_fixed)


def _constructive_basis(eq: EquivariantLattice) -> Optional[InvariantBasis]:
    """The split basis of a direct sum of Z/n and R/(q^k) leaves, or None.

    Applies when eq presents its provenance M and M is the module
    build(M.shape, p) of such a sum: relations the diagonal of the leaf
    orders, the identity on each Z/n and the shift on each R/(q^k).  One
    pass over M's element orbits gives the vectors of the left fold of
    assemble_direct_sum over the leaf bases, in the same order, with no
    leaf or partial sum presented: 0-hat, then for each leaf on coordinates
    [s, e) its own vectors and the cross vectors tying it to [0, s).
    """
    M = eq.provenance
    leaves = M.shape.parts if isinstance(M.shape, DirectSum) else (M.shape,)
    if not all(isinstance(leaf, (TrivCyclic, CyclicR)) for leaf in leaves):
        return None
    one, shift = IntMatrix.identity(1), generator(M.p).matrix()
    orders, auts = [], []
    for leaf in leaves:
        if isinstance(leaf, TrivCyclic):
            orders.append(leaf.n)
            auts.append(one)
        else:
            orders += [leaf.q**leaf.k] * M.p
            auts.append(shift)
    if M.rel.basis != IntMatrix.diag(orders) or M.aut != IntMatrix.block_diag(*auts):
        return None
    orbits = M.orbits()
    fixed, blocks = [_unit(eq.lattice.ambient, M.index_of((0,) * M.r))], []
    s = 0
    for leaf in leaves:
        e = s + (1 if isinstance(leaf, TrivCyclic) else M.p)
        for vectors in (_leaf_vectors, _cross_vectors):
            more_fixed, more_blocks = vectors(M, orbits, s, e)
            fixed += more_fixed
            blocks += more_blocks
        s = e
    return InvariantBasis(eq.p, eq.action, eq.lattice, blocks, fixed)


def _orbit_of(c: IntMatrix, v: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    orb = [v]
    for _ in range(p - 1):
        orb.append(c.apply(orb[-1]))
    return orb


def _candidate_pool(r: int, rng: random.Random) -> list[tuple[int, ...]]:
    pool = [_unit(r, i) for i in range(r)]
    for _ in range(4 * r):
        pool.append(tuple(rng.randint(-2, 2) for _ in range(r)))
    return pool


def _extract_orbits(c: IntMatrix, p: int, target: int, rng: random.Random):
    """`target` orbits spanning a primitive sublattice, greedily, and their Smith U; or None."""
    r = c.rows
    u = IntMatrix.identity(r)
    if target == 0:
        return [], u
    pool = _candidate_pool(r, rng)
    chosen: list[tuple[int, ...]] = []
    blocks: list[tuple[tuple[int, ...], ...]] = []
    progress = True
    while progress and len(blocks) < target:
        progress = False
        for v in pool:
            if len(blocks) == target:
                break
            orb = _orbit_of(c, v, p)
            if orb[1] == orb[0]:
                continue
            cand = chosen + orb
            res = snf(IntMatrix.from_cols(cand, rows=r))
            if res.rank != len(cand) or any(d != 1 for d in res.diag[: res.rank]):
                continue
            chosen, blocks, u = cand, blocks + [tuple(orb)], res.u
            progress = True
    return (blocks, u) if len(blocks) == target else None


def _complete_with_fixed(u: IntMatrix, chosen: int, fix: Lattice):
    """Fixed vectors completing `chosen` primitive vectors of Smith row transform u to a basis."""
    r = u.rows
    need = r - chosen
    if need == 0:
        return []
    if fix.rank == 0:
        return None
    proj = u.submatrix(range(chosen, r), range(r))
    sol = solve_columns(proj @ fix.basis, IntMatrix.identity(need))
    if sol is None:
        return None
    lifted = fix.basis @ sol
    return [lifted.col(j) for j in range(need)]


def _greedy_basis(
    eq: EquivariantLattice, rng: random.Random
) -> tuple[Optional[InvariantBasis], int]:
    """A split basis found by greedy orbit extraction, or None; and the attempts made."""
    c = eq.restricted()
    r = c.rows
    fix = kernel_basis(c - IntMatrix.identity(r))
    orbit_count, rem = divmod(r - fix.rank, eq.p - 1)
    if rem:
        return None, 0
    for attempt in range(1, GREEDY_ATTEMPTS + 1):
        found = _extract_orbits(c, eq.p, orbit_count, rng)
        if found is None:
            continue
        blocks, u = found
        fixed = _complete_with_fixed(u, orbit_count * eq.p, fix)
        if fixed is None:
            continue
        bas = eq.lattice.basis
        amb_blocks = [tuple(bas.apply(v) for v in blk) for blk in blocks]
        amb_fixed = [bas.apply(v) for v in fixed]
        return InvariantBasis(eq.p, eq.action, eq.lattice, amb_blocks, amb_fixed), attempt
    return None, GREEDY_ATTEMPTS


def find_invariant_basis(
    eq: EquivariantLattice,
    allow_stabilization: bool = False,
    k_max: int = DEFAULT_K_MAX,
    seed: int = 0,
) -> tuple[int, InvariantBasis]:
    """Split eq (possibly plus k regular blocks) into free orbits and fixed vectors.

    Returns (k, basis) with k = 0 whenever the direct search succeeds.
    Constructive route first when the lattice knows its shape; greedy
    orbit extraction with fixed completion otherwise; stabilization only
    when allowed.  Failures raise, never approximate.
    """
    if not eq.is_noncyclotomic():
        raise NotNoncyclotomic(
            "norm kernel exceeds the twist image; no free-plus-trivial basis exists"
        )
    if eq.provenance is not None:
        basis = _constructive_basis(eq)
        if basis is not None:
            return 0, basis
    rng = random.Random(seed)
    top = k_max if allow_stabilization else 0
    attempts = 0
    for k in range(top + 1):
        found, tried = _greedy_basis(eq.stabilized(k), rng)
        attempts += tried
        if found is not None:
            return k, found
    raise SearchExhausted(
        f"no invariant basis found for rank {eq.rank} after stabilizing up to k={top}",
        attempts=attempts,
        k=top,
    )


@dataclass(frozen=True)
class StabilizedPresentation:
    """Exact row 0 -> N1 -> N2 -> M -> 0 with both lattices carrying split bases.

    N2 is the element lattice plus k regular blocks; its basis is the
    element basis itself, so cover[i] points at the basis vector of N2
    lying over elements[i].
    """

    M: FinMod
    k: int
    n1: InvariantBasis
    n2: InvariantBasis
    pi_matrix: IntMatrix
    cover: tuple[int, ...]


def _pad_with_regular_blocks(basis: InvariantBasis, p: int, delta: int) -> InvariantBasis:
    """Extend a split basis of L to one of L plus delta regular blocks."""
    action, ambient, regular = _regular_blocks(p, delta, basis.action, basis.ambient.basis)
    pad = (0,) * (delta * p)
    blocks = [tuple(v + pad for v in blk) for blk in basis.orbit_blocks] + regular
    fixed = [v + pad for v in basis.fixed_vectors]
    return InvariantBasis(p, action, ambient, blocks, fixed)


def stabilize_presentation(
    M: FinMod, k_max: int = DEFAULT_K_MAX, seed: int = 0, k_min: int = 0
) -> StabilizedPresentation:
    """Present M with an invariant-basis kernel, adjoining regular blocks if needed.

    k_min forces at least that many regular blocks, which keeps two rows
    comparable when one needed stabilization and the other did not.
    """
    return _stabilize(build_aug(M), k_max, seed, k_min)


def _stabilize(aug: AugPresentation, k_max: int, seed: int, k_min: int) -> StabilizedPresentation:
    """stabilize_presentation for the module that aug already presents."""
    M = aug.M
    k, n1 = find_invariant_basis(
        aug.kernel_pair(), allow_stabilization=True, k_max=max(k_max, k_min), seed=seed
    )
    if k < k_min:
        n1 = _pad_with_regular_blocks(n1, M.p, k_min - k)
        k = k_min
    p = M.p
    total = aug.size + k * p

    action, ambient, regular = _regular_blocks(p, k, aug.action, IntMatrix.identity(aug.size))
    fixed, blocks = _split_orbits(M.orbits(), lambda x: _unit(total, M.index_of(x)))
    n2 = InvariantBasis(p, action, ambient, blocks + regular, fixed)

    pi_ext = IntMatrix.hstack(aug.pi_matrix, IntMatrix.zeros(M.r, k * p))
    # pi_ext maps onto M, so a full-rank n1 inside its kernel with index |M|
    # is the whole kernel
    kernel = n1.ambient
    exact = kernel.rank == total and M.rel.solve(pi_ext @ kernel.basis) is not None
    if not exact or kernel.index() != M.order():
        raise InternalInvariantError("stabilized row is not exact")

    vec_pos = {v: i for i, v in enumerate(n2.vectors())}
    cover = tuple(vec_pos[_unit(total, M.index_of(x))] for x in aug.elements)
    return StabilizedPresentation(M, k, n1, n2, pi_ext, cover)
