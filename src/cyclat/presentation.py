"""Presentations of finite modules by free abelian groups.

A finite module M over the order-p group ring sits in an exact row

    0 -> N -> Z^M -> M -> 0

where Z^M is free on the elements of M (basis written x-hat), the middle
map sends x-hat to x, and the group acts on Z^M by permuting the basis.
This module builds that row, constructs explicit bases of N that split
into free orbits and fixed vectors, and stabilizes by regular summands
when a direct search needs the extra room.

N's canonical Hermite basis is written in closed form, one walk over the
elements from last to first (see _kernel_hermite), and certified by its
shape, by containment and by its index |M| instead of by an elimination.

A lattice with a verified free-plus-fixed basis is noncyclotomic, so the
verdict takes three routes in turn.  Shape: for a direct sum of Z/n and
R/(q^k) leaves the split basis is read off in one pass over the module's
own element orbits: 0-hat, each leaf's vectors, and the cross vectors that
tie each leaf to the leaves before it.  Trivial action: when the action is
the identity on the lattice, its canonical basis is the split basis, all of
it fixed.  Norm kernel: any other lattice compares the norm kernel with the
twist image, and is split by a seeded greedy search: free orbits of
candidate vectors, each accepted when a p-column Hermite elimination says
it keeps the chosen set primitive, then fixed vectors completing them; one
certified Smith form per completed search hands the completion its
transform.  A split basis holds its vectors as sparse columns {index:
entry}, as every builder here emits them; the dense tuples are made on
each read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .cyclo_ring import norm
from .errors import (
    InternalInvariantError,
    NotNoncyclotomic,
    PreconditionError,
    SearchExhausted,
)
from .intlinalg import IntMatrix, Lattice, kernel_basis, snf, solve_columns
from .intlinalg import _hermite_columns, _unit_pivots, is_unimodular
from .zmod import CyclicR, FinMod, FreeR, TrivCyclic, _layout, build, direct_sum

GREEDY_ATTEMPTS = 6
DEFAULT_K_MAX = 4
_UNDECIDED = object()  # an EquivariantLattice's witness before its first search
UNPRESENTABLE = "only finite modules have a finite element basis"  # build_aug's refusal


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def _column(terms) -> dict[int, int]:
    """The vector sum c e_i over the pairs (i, c) in terms, as {i: nonzero entry}; repeated i add up."""
    col: dict[int, int] = {}
    for i, c in terms:
        col[i] = col.get(i, 0) + c
    return {i: c for i, c in col.items() if c}


def _dense(n: int, col: dict[int, int]) -> tuple[int, ...]:
    """The column {i: entry} as a length-n tuple."""
    v = [0] * n
    for i, c in col.items():
        v[i] = c
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
    the grown lattice and the k unit-vector orbits spanning the new blocks,
    as columns.
    """
    old = action.rows
    grown = IntMatrix.block_diag(action, _layout(FreeR(k), p)[2]) if k else action  # freeR(k)'s shifts
    span = Lattice(old + k * p, IntMatrix.block_diag(basis, IntMatrix.identity(k * p)))
    orbits = [tuple({old + j * p + i: 1} for i in range(p)) for j in range(k)]
    return grown, span, orbits


def _split_with_regular_blocks(p: int, k: int, action: IntMatrix, basis: IntMatrix, blocks, fixed):
    """The split basis (blocks, fixed) of a lattice, extended to the lattice plus k regular blocks."""
    grown, span, regular = _regular_blocks(p, k, action, basis)
    return InvariantBasis(p, grown, span, list(blocks) + regular, fixed)


class EquivariantLattice:
    """A sublattice of Z^n kept stable by an ambient action of order p.

    `provenance` optionally records the finite module whose presentation
    kernel this is; when it has a shape, the constructive split basis
    settles noncyclotomy and is kept for the basis search, without
    presenting the module again.  An identity action is restricted to the
    identity without a power or a solve.
    """

    __slots__ = ("p", "lattice", "action", "provenance", "_restricted", "_witness", "_basis", "_stabilized")

    def __init__(self, p: int, lattice: Lattice, action: IntMatrix, provenance=None):
        n = lattice.ambient
        if action.rows != n or action.cols != n:
            raise PreconditionError("action must be square on the ambient space")
        one = IntMatrix.identity(n)
        if action == one:
            restricted = IntMatrix.identity(lattice.rank)
        else:
            if action.pow(p) != one:
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
        self._basis = None
        self._stabilized = {}

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
        of the kernel falls outside.  Decided on the first call and kept:
        the lattice and its action never change.  A lattice with a verified
        split basis is Z[C_p]^a + Z^b, where the norm kernel is the twist
        image (Diederichsen-Reiner; Curtis-Reiner, Methods I, section 34),
        so three routes are tried in turn:

        * shape: when the provenance's shape gives the constructive basis;
        * trivial action: when the action restricted to the lattice is the
          identity, the canonical basis taken as fixed vectors, which is
          what the greedy search would return for any seed;
        * norm kernel: any other lattice compares the two lattices in
          _search_witness.

        A basis from the first two routes is verified, and kept for
        find_invariant_basis.
        """
        if self._witness is _UNDECIDED:
            if self.provenance is not None:
                self._basis = _constructive_basis(self)
            if self._basis is None and self._restricted == IntMatrix.identity(self.rank):
                fixed = self.lattice.basis.transpose()._ent
                self._basis = InvariantBasis(self.p, self.action, self.lattice, [], fixed)
            self._witness = None if self._basis is not None else self._search_witness()
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
        """Direct sum with k regular-representation blocks, built once and kept."""
        if k == 0:
            return self
        if k not in self._stabilized:
            action, lattice, _ = _regular_blocks(self.p, k, self.action, self.lattice.basis)
            self._stabilized[k] = EquivariantLattice(self.p, lattice, action)
        return self._stabilized[k]


class AugPresentation:
    """The row 0 -> N -> Z^M -> M -> 0 in explicit coordinates.

    elements fixes the basis order of Z^M: FinMod.enumerate's, which lists
    zero first, so 0-hat is index 0 wherever a column indexes Z^M.
    pi_matrix has the element representatives as columns; kernel is N with
    the action that permutes the basis the way the automorphism permutes M.
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

    def combination(self, terms) -> tuple[int, ...]:
        """The vector sum c x-hat over the pairs (x, c) in terms; x any vector of M."""
        return _dense(self.size, _column([(self.index(x), c) for x, c in terms]))

    def kernel_pair(self) -> EquivariantLattice:
        return self.kernel


def _kernel_hermite(M: FinMod, elements) -> IntMatrix:
    """The canonical Hermite basis H of {w : sum w_k x_k = 0 in M}, in closed form.

    H is lower triangular.  Its diagonal entry d_k is the order of x_k
    modulo S = <x_(k+1), ..., x_(m-1)>, and S is the set of sums of a_t x_t
    over the tail T of the indices t > k with d_t > 1, each a_t in
    [0, d_t) and each sum met once.  So column k is d_k e_k plus these
    mixed-radix coefficients of -d_k x_k on T, which are reduced as the
    Hermite form wants, and every row outside T is a unit row.  The walk
    goes from the last element to the first and keeps S as a dict from each
    element s to the coefficients of -s; when d_k > 1, k joins T and S
    grows by the multiples of x_k.  The rows come out in Lattice's layout.
    """
    m, reduce = len(elements), M.rel.reduce
    neg = {elements[0]: {}}  # the zero element, whose negative has no coefficients
    rows = [{} for _ in range(m)]
    for k in range(m - 1, -1, -1):
        x = elements[k]
        multiples = [x]  # a x for a = 1, ..., d_k - 1
        y = x
        while y not in neg:
            y = reduce([a + b for a, b in zip(y, x)])
            multiples.append(y)
        multiples.pop()  # y = d_k x, which lies in S
        rows[k][k] = len(multiples) + 1
        for t, a in neg[y].items():
            rows[t][k] = a
        if multiples:
            old = list(neg)
            for a, ax in enumerate(multiples, 1):
                for u in old:
                    # -(u - a x) = a x + (-u)
                    neg[reduce([b - e for b, e in zip(u, ax)])] = {**neg[u], k: a}
    return IntMatrix._wrap(rows, m, m)


def _certify_kernel(M: FinMod, pi: IntMatrix, kernel: Lattice, what: str) -> None:
    """Certify kernel as all of {w : pi w in M.rel}, for a pi onto M: full rank, inside it, and
    index |M|, which is that kernel's own index (Cohen, GTM 138, section 2.4)."""
    if kernel.rank != pi.cols:
        raise InternalInvariantError(f"{what} is not of full rank")
    if M.rel.solve(pi @ kernel.basis) is None:
        raise InternalInvariantError(f"{what} maps outside the relations")
    if kernel.index() != M.order():
        raise InternalInvariantError(f"{what} has the wrong index")


def build_aug(M: FinMod) -> AugPresentation:
    """Present a finite module by the free abelian group on its elements.

    The kernel's canonical basis H comes from _kernel_hermite; Lattice._from_hermite
    checks its Hermite shape in one pass, and _certify_kernel certifies it as the
    whole kernel (full rank, pi H in the relations, index |M|) before use.
    """
    if not M.is_finite():
        raise PreconditionError(UNPRESENTABLE)
    elements = tuple(M.enumerate())
    pi = IntMatrix.from_cols(elements, rows=M.r)
    m = len(elements)
    action = IntMatrix.unit_columns(m, M.action_permutation())
    n = Lattice._from_hermite(m, _kernel_hermite(M, elements))
    _certify_kernel(M, pi, n, "presentation kernel basis")
    try:
        kernel = EquivariantLattice(M.p, n, action, provenance=M)
    except PreconditionError as exc:
        raise InternalInvariantError(f"presentation kernel rejected: {exc}") from exc
    return AugPresentation(M, elements, pi, kernel)


class InvariantBasis:
    """A basis split into p-cycles of the action and fixed vectors.

    The stored order is fixed vectors first, then the orbit blocks in
    order.  Each vector is given and held as a sparse column {index: nonzero
    entry} of the ambient space (fixed_columns, orbit_columns).  verify
    reads the columns as they are, and orbit_blocks, fixed_vectors and
    vectors() build the dense tuples on each read.  Every constructor in
    this module verifies the split before handing the object out.
    """

    __slots__ = ("p", "action", "ambient", "orbit_columns", "fixed_columns")

    def __init__(self, p, action, ambient, orbit_columns, fixed_columns):
        self.p = p
        self.action = action
        self.ambient = ambient
        self.orbit_columns = tuple(tuple(blk) for blk in orbit_columns)
        self.fixed_columns = tuple(fixed_columns)
        self.verify()

    @property
    def orbit_blocks(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        n = self.ambient.ambient
        return tuple(tuple(_dense(n, c) for c in blk) for blk in self.orbit_columns)

    @property
    def fixed_vectors(self) -> tuple[tuple[int, ...], ...]:
        n = self.ambient.ambient
        return tuple(_dense(n, c) for c in self.fixed_columns)

    def vectors(self) -> list[tuple[int, ...]]:
        out = list(self.fixed_vectors)
        for blk in self.orbit_blocks:
            out.extend(blk)
        return out

    def columns(self) -> tuple[dict[int, int], ...]:
        """The sparse columns in the stored order; read them, never change them."""
        return self.fixed_columns + tuple(c for blk in self.orbit_columns for c in blk)

    @property
    def rank(self) -> int:
        return len(self.fixed_columns) + self.p * len(self.orbit_columns)

    def matrix(self) -> IntMatrix:
        cols = self.columns()
        return IntMatrix._wrap(cols, len(cols), self.ambient.ambient).transpose()

    def verify(self) -> None:
        n = self.ambient.ambient
        cols = self.columns()
        if not all(x and 0 <= i < n for c in cols for i, x in c.items()):
            raise InternalInvariantError("basis column with an index outside the ambient space or a zero")
        if len(cols) != self.ambient.rank:
            raise InternalInvariantError("basis size differs from the lattice rank")
        mat = IntMatrix._wrap(cols, len(cols), n).transpose()
        # rank-many vectors of the lattice span it when their coordinates
        # in its basis form a matrix of determinant +-1
        coords = self.ambient.solve(mat)
        if coords is None or not is_unimodular(coords):
            raise InternalInvariantError("vectors do not span the lattice")
        # one product moves every vector: each block vector must land on the
        # next one of its block, and each fixed vector must stay put
        moved = (self.action @ mat).transpose()._ent
        p = self.p
        start = len(self.fixed_columns)
        for blk in self.orbit_columns:
            if len(blk) != p:
                raise InternalInvariantError("orbit block of the wrong length")
            if blk[0] == blk[(1 % p)] and p > 1:
                raise InternalInvariantError("orbit block has period 1")
            if any(moved[start + i] != cols[start + (i + 1) % p] for i in range(p)):
                raise InternalInvariantError("orbit block is not a p-cycle")
            start += p
        if moved[: len(self.fixed_columns)] != self.fixed_columns:
            raise InternalInvariantError("fixed vector moves under the action")

    def summary(self) -> str:
        return f"{len(self.orbit_columns)} free orbit(s) + {len(self.fixed_columns)} fixed"


def _check_assembly_convention(basis: InvariantBasis) -> None:
    # assembly needs the zero-hat vector isolated: first fixed vector is
    # exactly 0-hat, every other basis vector has zero 0-hat coefficient
    if not basis.fixed_columns or basis.fixed_columns[0] != {0: 1}:
        raise PreconditionError("first fixed vector must be the zero-hat vector")
    if any(0 in c for c in basis.columns()[1:]):
        raise PreconditionError("basis vectors other than zero-hat must avoid it")


def cyclic_trivial_basis(n: int, p: int) -> InvariantBasis:
    """Kernel basis for Z/n with trivial action: the constructive basis of a one-leaf sum."""
    return _constructive_basis(build_aug(build(TrivCyclic(n), p)).kernel)


def cyclic_r_basis(q: int, k: int, p: int) -> InvariantBasis:
    """Kernel basis for the rank-one quotient R/(q^k): the constructive basis of a one-leaf sum."""
    return _constructive_basis(build_aug(build(CyclicR(q, k), p)).kernel)


def _leaf_vectors(M: FinMod, orbits, s: int, e: int, d: int):
    """Fixed vectors and orbit blocks of the leaf on coordinates [s, e) of M, 0-hat left out.

    The leaf is Z^(e-s) / d Z^(e-s) with generators g_i = e_i reduced: one
    for Z/n (d = n), the p shifts for R/(q^k) (d = q^k).  First xi_x =
    x-hat - sum x_i g_i-hat for every nonzero leaf element x outside the
    generators, split along the element orbits; then d g_i-hat, one fixed
    vector for Z/n and one free orbit for R/(q^k).  Z/1 has only the
    element 0, which is its generator, so it adds nothing.  The vectors
    are columns in M's element coordinates; orbits is M.orbits().
    """
    gens = [M.reduce(_unit(M.r, i)) for i in range(s, e)]
    gen_idx = [M.index_of(g) for g in gens]

    def xi(x: tuple[int, ...]) -> dict[int, int]:
        return _column([(M.index_of(x), 1)] + [(g, -c) for g, c in zip(gen_idx, x[s:e])])

    own = (
        o for o in orbits
        if any(o[0][s:e]) and not any(o[0][:s]) and not any(o[0][e:]) and o[0] not in gens
    )
    fixed, blocks = _split_orbits(own, xi)
    if any(gens[0]):  # the generator of Z/1 is 0
        gen_fixed, gen_blocks = _split_orbits([gen_idx], lambda i: {i: d})
        fixed += gen_fixed
        blocks += gen_blocks
    return fixed, blocks


def _cross_vectors(M: FinMod, orbits, s: int, e: int):
    """Fixed vectors and orbit blocks tying coordinates [s, e) of M to [0, s).

    One xi_x = x-hat - (x[:s], 0)-hat - (0, x[s:e], 0)-hat for each element
    x supported on [0, e) with both parts nonzero; none when s = 0.  The
    vectors are columns in M's element coordinates; orbits is M.orbits().
    """
    zero = (0,) * M.r

    def xi(x: tuple[int, ...]) -> dict[int, int]:
        left = x[:s] + zero[s:]
        right = zero[:s] + x[s:e] + zero[e:]
        return _column([(M.index_of(x), 1), (M.index_of(left), -1), (M.index_of(right), -1)])

    crossing = (o for o in orbits if any(o[0][:s]) and any(o[0][s:e]) and not any(o[0][e:]))
    return _split_orbits(crossing, xi)


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
    _check_assembly_convention(b1)
    _check_assembly_convention(b2)

    psum = build_aug(direct_sum(p1.M, p2.M))
    msum = psum.M
    r1 = p1.M.r
    e1 = [psum.index(tuple(x) + (0,) * p2.M.r) for x in p1.elements]
    e2 = [psum.index((0,) * r1 + tuple(x)) for x in p2.elements]

    def embed(e, col):
        return {e[i]: x for i, x in col.items()}

    fixed = [{0: 1}]
    fixed += [embed(e1, c) for c in b1.fixed_columns[1:]]
    fixed += [embed(e2, c) for c in b2.fixed_columns[1:]]
    blocks = [tuple(embed(e1, c) for c in blk) for blk in b1.orbit_columns]
    blocks += [tuple(embed(e2, c) for c in blk) for blk in b2.orbit_columns]
    cross_fixed, cross_blocks = _cross_vectors(msum, msum.orbits(), r1, msum.r)
    return InvariantBasis(msum.p, psum.action, psum.N, blocks + cross_blocks, fixed + cross_fixed)


def _constructive_basis(eq: EquivariantLattice) -> Optional[InvariantBasis]:
    """The split basis of a direct sum of Z/n and R/(q^k) leaves, or None.

    Applies when eq presents its provenance M and M is the module
    build(M.shape, p) of such a sum: M's relations and action equal the
    layout build gives the leaf table of M.shape, and any other tag gives
    None.  One pass over M's element orbits gives the vectors of the left
    fold of assemble_direct_sum over the leaf bases, in the same order, with
    no leaf or partial sum presented: 0-hat, then for each leaf on the
    coordinates [s, e) the table gives it, its own vectors and the cross
    vectors tying it to [0, s).  The vectors are built as sparse columns.
    """
    M = eq.provenance
    try:
        table, rel, aut = _layout(M.shape, M.p)
    except PreconditionError:
        return None
    if any(order == 0 for _, _, order, _ in table) or M.rel.basis != rel or M.aut != aut:
        return None
    orbits = M.orbits()
    fixed, blocks, s = [{0: 1}], [], 0
    for _, width, order, _ in table:
        more_fixed, more_blocks = _leaf_vectors(M, orbits, s, s + width, order)
        cross_fixed, cross_blocks = _cross_vectors(M, orbits, s, s + width)
        fixed += more_fixed + cross_fixed
        blocks += more_blocks + cross_blocks
        s += width
    return InvariantBasis(eq.p, eq.action, eq.lattice, blocks, fixed)


def _spans_unit_lattice(rows: Sequence[dict[int, int]], p: int) -> bool:
    """Whether the vectors {j < p: entry} span Z^p: their Hermite form has p unit pivots."""
    cols = [dict(b) for b in rows if b]
    return len(cols) >= p and _unit_pivots(cols, p)


class _CandidatePool:
    """The candidates of one greedy attempt: the r unit vectors, then 4r random vectors.

    A random vector is r draws rng.randint(-2, 2), made when a reader first
    reaches it and kept for later passes.  Vectors are drawn in pool order,
    so each is the one that drawing all 4r² values up front would have put
    there; drain() makes the draws nobody read, which leaves rng where
    drawing up front would have.
    """

    __slots__ = ("r", "rng", "vectors")

    def __init__(self, r: int, rng: random.Random):
        self.r = r
        self.rng = rng
        self.vectors: list[tuple[int, ...]] = []

    def __iter__(self):
        r = self.r
        for i in range(5 * r):
            if i == len(self.vectors):
                draw = _unit(r, i) if i < r else tuple(self.rng.randint(-2, 2) for _ in range(r))
                self.vectors.append(draw)
            yield self.vectors[i]

    def drain(self) -> None:
        for _ in self:
            pass


def _extract_orbits(c: IntMatrix, p: int, target: int, pool: _CandidatePool):
    """`target` orbits spanning a primitive sublattice, greedily, and their Smith U; or None.

    Passes over the pool while a pass still accepts a candidate v, and
    takes the orbit of v whenever it keeps the chosen vectors primitive.
    That test needs no Smith form of the chosen vectors.  Let U be
    unimodular with U chosen = [W; 0]; comp holds U's last r - |chosen|
    rows, which span the integer row vectors orthogonal to the chosen ones.
    Then U [chosen | orb] = [[W, X], [0, B]] with B = comp orb, and W is
    unimodular because the chosen vectors are primitive, so column
    operations clear X: chosen + orb is primitive exactly when the rows of
    B span Z^p.  One Hermite elimination of those p-long rows decides it,
    and rejects a v the action fixes (B then has rank 1).  On acceptance
    the same elimination, with comp's rows stacked below B's, is a
    unimodular T with T B = [I; 0], and its last rows are the new comp.
    The Smith U handed on comes from one certified snf of the final chosen
    vectors, which must agree with the test.
    """
    r = c.rows
    powers = [IntMatrix.identity(r)]
    for _ in range(p - 1):
        powers.append(c @ powers[-1])
    comp = IntMatrix.identity(r)
    lift = IntMatrix.vstack(*powers)  # block j is comp c^j: (lift v)[j m + i] is B[i, j]
    chosen: list[tuple[int, ...]] = []
    blocks: list[tuple[tuple[int, ...], ...]] = []
    progress = True
    while progress and len(blocks) < target:
        progress = False
        for v in pool:
            if len(blocks) == target:
                break
            y, m = lift.apply(v), comp.rows
            rows = [{j: y[j * m + i] for j in range(p) if y[j * m + i]} for i in range(m)]
            if not _spans_unit_lattice(rows, p):
                continue
            stacked = [{**b, **{p + t: x for t, x in u.items()}} for b, u in zip(rows, comp._ent)]
            _hermite_columns(stacked, p)
            comp_rows = [{t - p: x for t, x in col.items()} for col in stacked[p:]]
            comp = IntMatrix._wrap(comp_rows, len(comp_rows), r)
            lift = IntMatrix.vstack(comp, *(comp @ a for a in powers[1:]))
            orb = [a.apply(v) for a in powers]  # the orbit v, c v, ..., c^(p-1) v
            chosen += orb
            blocks.append(tuple(orb))
            progress = True
    if len(blocks) < target:
        return None
    res = snf(IntMatrix.from_cols(chosen, rows=r))
    if res.diag != (1,) * len(chosen):
        raise InternalInvariantError("greedy orbits are not primitive by their Smith form")
    return blocks, res.u


def _complete_with_fixed(u: IntMatrix, chosen: int, fix: Lattice) -> Optional[IntMatrix]:
    """Fixed vectors completing `chosen` primitive vectors of Smith row transform u to a
    basis, as the columns of a matrix; or None."""
    r = u.rows
    need = r - chosen
    if need == 0:
        return IntMatrix.zeros(r, 0)
    proj = u.submatrix(range(chosen, r), range(r))
    sol = solve_columns(proj @ fix.basis, IntMatrix.identity(need))
    return None if sol is None else fix.basis @ sol


def _greedy_basis(
    eq: EquivariantLattice, rng: random.Random
) -> tuple[Optional[InvariantBasis], int]:
    """A split basis found by greedy orbit extraction, or None; and the attempts made.

    A failed attempt drains its pool before the next one draws, so every
    attempt reads the rng stream where drawing whole pools up front would.
    Only an extraction that completes can leave draws unread: a failed one
    has read the whole pool.  An extraction of no orbit, for an action
    that fixes every vector, reads no pool and always completes.
    """
    c = eq.restricted()
    r = c.rows
    fix = kernel_basis(c - IntMatrix.identity(r))
    # a noncyclotomic lattice is Z[C_p]^a + Z^b, so r - rank(fixed) = a (p - 1)
    orbit_count = (r - fix.rank) // (eq.p - 1)
    n = orbit_count * eq.p
    for attempt in range(1, GREEDY_ATTEMPTS + 1):
        pool = _CandidatePool(r, rng)
        found = _extract_orbits(c, eq.p, orbit_count, pool)
        fixed = None if found is None else _complete_with_fixed(found[1], n, fix)
        if fixed is not None:
            orbits = IntMatrix.from_cols([v for blk in found[0] for v in blk], rows=r)
            amb = (eq.lattice.basis @ IntMatrix.hstack(orbits, fixed)).transpose()._ent
            blocks = [amb[i : i + eq.p] for i in range(0, n, eq.p)]
            return InvariantBasis(eq.p, eq.action, eq.lattice, blocks, amb[n:]), attempt
        pool.drain()
    return None, GREEDY_ATTEMPTS


def find_invariant_basis(
    eq: EquivariantLattice,
    allow_stabilization: bool = False,
    k_max: int = DEFAULT_K_MAX,
    seed: int = 0,
) -> tuple[int, InvariantBasis]:
    """Split eq (possibly plus k regular blocks) into free orbits and fixed vectors.

    Returns (k, basis) with k = 0 whenever the direct search succeeds.
    The basis that settled noncyclotomy when one did (the constructive
    basis of a shaped lattice, or the canonical basis of one the action
    fixes pointwise); greedy orbit extraction with fixed completion
    otherwise; stabilization only when allowed.  Failures raise, never
    approximate.
    """
    if not eq.is_noncyclotomic():
        raise NotNoncyclotomic(
            "norm kernel exceeds the twist image; no free-plus-trivial basis exists"
        )
    if eq._basis is not None:
        return 0, eq._basis
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

    N2 is the element lattice plus k regular blocks; its basis is the unit
    basis, and pi_matrix sends unit i below the element count to elements[i].
    """

    M: FinMod
    k: int
    n1: InvariantBasis
    n2: InvariantBasis
    pi_matrix: IntMatrix


def stabilize_presentation(
    aug: AugPresentation, k_max: int = DEFAULT_K_MAX, seed: int = 0, k_min: int = 0
) -> StabilizedPresentation:
    """Give aug's module an invariant-basis kernel, adjoining regular blocks if needed.

    k_min forces at least that many regular blocks, which keeps two rows
    comparable when one needed stabilization and the other did not.
    """
    M, p = aug.M, aug.M.p
    k, n1 = find_invariant_basis(
        aug.kernel_pair(), allow_stabilization=True, k_max=max(k_max, k_min), seed=seed
    )
    if k < k_min:
        n1 = _split_with_regular_blocks(
            p, k_min - k, n1.action, n1.ambient.basis, n1.orbit_columns, n1.fixed_columns
        )
        k = k_min
    fixed, blocks = _split_orbits(M.orbits(), lambda x: {M.index_of(x): 1})
    n2 = _split_with_regular_blocks(p, k, aug.action, IntMatrix.identity(aug.size), blocks, fixed)
    pi_ext = IntMatrix.hstack(aug.pi_matrix, IntMatrix.zeros(M.r, k * p))
    _certify_kernel(M, pi_ext, n1.ambient, "stabilized row is not exact: N1")
    return StabilizedPresentation(M, k, n1, n2, pi_ext)
