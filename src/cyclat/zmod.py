"""Finitely generated abelian groups with a designated automorphism of
prime order p, modeled as ambient Z^r modulo a relation lattice.

The concrete representation (rather than bare invariant factors) matters:
the constructions downstream need distinguished elements, equivariant maps
and honest submodule inclusions, none of which survive passing to an
isomorphism class.

Canonical element representatives live in the HNF fundamental domain of
the relation lattice, so plain tuples serve as elements and tuple equality
is element equality.

A shape expression is read through one leaf table (_leaf_blocks): each
leaf's coordinates, relation order and action, the identity or the shift.
spec_order, spec_rank and build read it, and so does presentation's
constructive split basis.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from itertools import product
from typing import Iterable, Optional, Sequence

from .cyclo_ring import is_prime, norm
from .errors import ParseError, PreconditionError
from .intlinalg import (
    IntMatrix,
    Lattice,
    QuotientInvariants,
    inv_unimodular,
    quotient_invariants,
)

# Largest module order FinMod.enumerate lists; cost grows with it.  At the
# bound, check-noncyc "cyclicR(2,8)" --p 2 takes about 2 s and 160 MB as a
# process (2-vCPU machine, Python 3.11); CI holds it below 600 MB.
MAX_ENUMERATION = 1 << 16

# -- shape expressions -------------------------------------------------------


@dataclass(frozen=True)
class TrivCyclic:
    """Z/n with the identity action."""

    n: int

    def __str__(self) -> str:
        return f"triv({self.n})"


@dataclass(frozen=True)
class TrivFree:
    """Z^rank with the identity action."""

    rank: int

    def __str__(self) -> str:
        return f"trivfree({self.rank})"


@dataclass(frozen=True)
class CyclicR:
    """Free cyclic over the group ring, reduced mod q^k."""

    q: int
    k: int

    def __str__(self) -> str:
        return f"cyclicR({self.q},{self.k})"


@dataclass(frozen=True)
class FreeR:
    """Free over the group ring of the given rank."""

    rank: int

    def __str__(self) -> str:
        return f"freeR({self.rank})"


@dataclass(frozen=True)
class DirectSum:
    parts: tuple

    def __str__(self) -> str:
        return " + ".join(str(p) for p in self.parts)


# One summand: a keyword and one or two integers in parentheses, spaced freely.
_SUMMAND = re.compile(r"\s*([A-Za-z]+)\s*\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*")
_LEAVES = {"triv": TrivCyclic, "trivfree": TrivFree, "cyclicR": CyclicR, "freeR": FreeR}


def parse_modspec(text: str):
    """Parse the textual shape grammar: triv(n), trivfree(r), cyclicR(q,k),
    freeR(r), joined by infix '+'.  Each summand matches whole; its leaf
    type's field count is its number of integers."""
    parts = []
    for summand in text.split("+"):
        m = _SUMMAND.fullmatch(summand)
        if m is None:
            if not summand.strip():
                raise ParseError("empty summand in module spec")
            raise ParseError(f"malformed summand {summand.strip()!r} in module spec")
        name, *args = (g for g in m.groups() if g is not None)
        leaf = _LEAVES.get(name)
        if leaf is None:
            raise ParseError(f"unknown shape keyword {name!r}")
        if len(fields(leaf)) != len(args):
            raise ParseError(f"{name} takes {len(fields(leaf))} integer(s), got {len(args)}")
        parts.append(leaf(*map(int, args)))
    return parts[0] if len(parts) == 1 else DirectSum(tuple(parts))


def _leaf_blocks(spec, p: int) -> list[tuple]:
    """The leaf table of a shape: (leaf, width, order, shifted) for each leaf, in order.

    A leaf takes width coordinates, each with the relation order e_i (none
    when order is 0: a free leaf), and acts on them by the identity or, when
    shifted, by the shift e_i -> e_(i+1) on each run of p.  The one dispatch
    over the leaf types; refuses an invalid shape.
    """
    if isinstance(spec, TrivCyclic):
        if spec.n < 1:
            raise PreconditionError("triv(n) needs n >= 1")
        return [(spec, 1, spec.n, False)]
    if isinstance(spec, (TrivFree, FreeR)):
        if spec.rank < 1:
            raise PreconditionError("free rank must be >= 1")
        shifted = isinstance(spec, FreeR)
        return [(spec, spec.rank * (p if shifted else 1), 0, shifted)]
    if isinstance(spec, CyclicR):
        if not is_prime(spec.q) or spec.k < 1:
            raise PreconditionError("cyclicR(q,k) needs q prime and k >= 1")
        return [(spec, p, spec.q**spec.k, True)]
    if isinstance(spec, DirectSum):
        if not spec.parts:
            raise PreconditionError("empty direct sum")
        return [block for part in spec.parts for block in _leaf_blocks(part, p)]
    raise PreconditionError(f"not a module shape: {spec!r}")


def _layout(spec, p: int) -> tuple[list[tuple], IntMatrix, IntMatrix]:
    """The leaf table of a shape, with the relation basis and the action build
    lays it out on: the diagonal columns order e_i, already in Hermite form,
    and the permutation that fixes e_i or shifts it."""
    table = _leaf_blocks(spec, p)
    rel_rows, targets, rank = [], [], 0
    for _, width, order, shifted in table:
        s = len(targets)
        targets += [s + i - i % p + (i + 1) % p if shifted else s + i for i in range(width)]
        rel_rows += [{rank + i: order} if order else {} for i in range(width)]
        rank += width if order else 0
    r = len(targets)
    return table, IntMatrix._wrap(rel_rows, r, rank), IntMatrix.unit_columns(r, targets)


def spec_order(spec, p: int) -> Optional[int]:
    """Order of the module build(spec, p) realizes, or None when it is
    infinite: read off the leaf table, so no matrix is built.  Refuses an
    invalid shape as build does."""
    orders = [order**width for _, width, order, _ in _leaf_blocks(spec, p)]
    return None if 0 in orders else math.prod(orders)


def spec_rank(spec, p: int) -> int:
    """Rank r of the Z^r on which build(spec, p) realizes the module: read
    off the leaf table, like the order."""
    return sum(width for _, width, _, _ in _leaf_blocks(spec, p))


def check_listable(order: Optional[int]) -> None:
    """Refuse to list the elements of a module of this order (None: infinite)."""
    if order is None:
        raise PreconditionError("cannot enumerate an infinite module")
    if order > MAX_ENUMERATION:
        raise PreconditionError(
            f"module of order {order} is too large to list its elements"
            f" (bound {MAX_ENUMERATION})"
        )


def cycles(nxt, starts) -> list[tuple]:
    """The cycles of the permutation x -> nxt[x], each listed from its first item in starts."""
    seen, out = set(), []
    for x in starts:
        if x not in seen:
            cyc = [x]
            while nxt[cyc[-1]] != x:
                cyc.append(nxt[cyc[-1]])
            seen.update(cyc)
            out.append(tuple(cyc))
    return out


# -- the module model ---------------------------------------------------------


class FinMod:
    """The group Z^r / rel with an automorphism given by the matrix aut.

    Required: aut maps rel into rel, and aut^p is the identity modulo rel,
    so the induced map on the quotient has order dividing p.  The group may
    be infinite (rel not of full rank); enumeration then refuses.  Whether
    aut is the identity matrix is decided once, when the module is made:
    such an aut keeps every lattice and is its own p-th power, so neither
    requirement needs a solve, and it fixes every element, so the element
    permutation is read off without acting on any element.
    """

    __slots__ = ("p", "r", "rel", "aut", "shape", "_identity", "_elems", "_index", "_perm", "_invariants")

    def __init__(self, p: int, r: int, rel: Lattice, aut: IntMatrix, shape=None):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if rel.ambient != r:
            raise PreconditionError("relation lattice lives in the wrong space")
        if aut.rows != r or aut.cols != r:
            raise PreconditionError("automorphism matrix has the wrong shape")
        one = IntMatrix.identity(r)
        identity = aut == one
        if not identity and rel.solve(aut @ rel.basis) is None:
            raise PreconditionError("automorphism does not preserve the relations")
        if not identity and rel.solve(aut.pow(p) - one) is None:
            raise PreconditionError("automorphism order does not divide p on the quotient")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "aut", aut)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_identity", identity)
        object.__setattr__(self, "_elems", None)
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_perm", None)
        object.__setattr__(self, "_invariants", None)

    def __setattr__(self, name, value):
        raise AttributeError("FinMod is immutable")

    # -- size --------------------------------------------------------------

    def is_finite(self) -> bool:
        return self.rel.rank == self.r

    def order(self) -> int:
        if not self.is_finite():
            raise PreconditionError("infinite module")
        return self.rel.index()

    def invariants(self) -> QuotientInvariants:
        if self._invariants is None:
            object.__setattr__(self, "_invariants", quotient_invariants(self.r, self.rel))
        return self._invariants

    def is_trivial_action(self) -> bool:
        return self.rel.solve(self.twist_matrix) is not None

    # -- elements ------------------------------------------------------------

    def reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of v modulo the relations."""
        if len(v) != self.r:
            raise PreconditionError("vector has the wrong length")
        return self.rel.reduce(v)

    def enumerate(self) -> list[tuple[int, ...]]:
        """All canonical representatives, deterministic order, zero first."""
        if self._elems is None:
            check_listable(self.order() if self.is_finite() else None)
            diag = [self.rel.basis[i, k] for k, i in enumerate(self.rel.pivot_rows)]
            elems = [tuple(v) for v in product(*(range(d) for d in diag))]
            object.__setattr__(self, "_elems", elems)
            object.__setattr__(self, "_index", {e: i for i, e in enumerate(elems)})
        return self._elems

    def index_of(self, v: Sequence[int]) -> int:
        self.enumerate()
        # every key is a canonical representative, so only a miss needs reducing
        i = self._index.get(tuple(v))
        return self._index[self.reduce(v)] if i is None else i

    def act(self, v: Sequence[int]) -> tuple[int, ...]:
        return self.reduce(self.aut.apply(v))

    def action_permutation(self) -> Sequence[int]:
        """Index of the image of each element under the action, in enumeration order."""
        if self._perm is None:
            elems = self.enumerate()
            perm = range(len(elems)) if self._identity else tuple(self._index[self.act(e)] for e in elems)
            object.__setattr__(self, "_perm", perm)
        return self._perm

    def orbits(self) -> list[list[tuple[int, ...]]]:
        """Partition of the elements into action orbits (sizes 1 or p)."""
        elems = self.enumerate()
        return [[elems[j] for j in orb] for orb in cycles(self.action_permutation(), range(len(elems)))]

    # -- distinguished operator lattices (all contain rel) -----------------

    @property
    def twist_matrix(self) -> IntMatrix:
        return self.aut - IntMatrix.identity(self.r)

    @property
    def norm_matrix(self) -> IntMatrix:
        return norm(self.p).on(self.aut)

    def t_image(self) -> Lattice:
        """The subgroup (alpha - 1)M, as a lattice between rel and Z^r."""
        return Lattice(self.r, IntMatrix.hstack(self.twist_matrix, self.rel.basis))

    def fixed_submodule(self) -> Lattice:
        """{m : alpha m = m}, as a lattice between rel and Z^r."""
        return self.rel.preimage(self.twist_matrix)

    def s_kernel(self) -> Lattice:
        """{m : (1 + alpha + ... + alpha^(p-1)) m = 0}."""
        return self.rel.preimage(self.norm_matrix)

    # -- submodules ----------------------------------------------------------

    def invariant_span(self, gens: Iterable[Sequence[int]]) -> Lattice:
        """Smallest action-invariant subgroup containing gens, as a lattice."""
        cols = list(self.rel.basis.columns())
        for g in gens:
            g = tuple(g)
            if len(g) != self.r:
                raise PreconditionError("generator has the wrong length")
            cur = g
            for _ in range(self.p):
                cols.append(cur)
                cur = self.aut.apply(cur)
        return Lattice(self.r, IntMatrix.from_cols(cols, rows=self.r))

    def submodule_generated(self, gens: Iterable[Sequence[int]]) -> "Submodule":
        return self.submodule_from_lattice(self.invariant_span(gens))

    def submodule_from_lattice(self, span: Lattice) -> "Submodule":
        rel_in = span.solve(self.rel.basis)
        if rel_in is None:
            raise PreconditionError("submodule lattice must contain the relations")
        aut_in = span.solve(self.aut @ span.basis)
        if aut_in is None:
            raise PreconditionError("submodule lattice is not action-invariant")
        sub = FinMod(self.p, span.rank, Lattice(span.rank, rel_in), aut_in)
        return Submodule(self, sub, span.basis, span)

    def invariant_subgroups(self) -> list[Lattice]:
        """All action-invariant subgroups, as lattices; finite modules only.

        Breadth-first closure: grow each known subgroup by one element orbit
        until nothing new appears.  Fine at |M| <= 16 scale.
        """
        if not self.is_finite():
            raise PreconditionError("infinite module")
        elems = self.enumerate()
        zero = self.invariant_span([])
        found = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for lat in frontier:
                for e in elems:
                    if lat.member(e):
                        continue
                    bigger = lat + self.invariant_span([e])
                    if bigger not in found:
                        found.add(bigger)
                        nxt.append(bigger)
            frontier = nxt
        return sorted(found, key=lambda l: (l.index() if l.rank == l.ambient else 0, l.basis.entries()))

    def describe(self) -> str:
        inv = self.invariants()
        act = "trivial action" if self.is_trivial_action() else f"order-{self.p} action"
        return f"{inv.describe()} with {act}"

    def __repr__(self) -> str:
        return f"FinMod(p={self.p}, Z^{self.r}/rank-{self.rel.rank} relations)"


@dataclass(frozen=True)
class Submodule:
    """A submodule in its own coordinates plus the inclusion back into the
    parent's ambient space (columns of `inclusion` = chosen basis of span)."""

    parent: FinMod
    module: FinMod
    inclusion: IntMatrix
    span: Lattice

    def embed(self, v: Sequence[int]) -> tuple[int, ...]:
        return self.inclusion.apply(v)


# -- constructors -------------------------------------------------------------


def build(spec, p: int) -> FinMod:
    """Realize a shape expression as one concrete FinMod, laid out by its
    leaf table; its shape is the leaf, or the sum of the leaves flattened."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    table, rel, aut = _layout(spec, p)
    leaves = tuple(leaf for leaf, _, _, _ in table)
    shape = leaves[0] if len(leaves) == 1 else DirectSum(leaves)
    return FinMod(p, aut.rows, Lattice._from_hermite(aut.rows, rel), aut, shape)


def direct_sum(a: FinMod, b: FinMod) -> FinMod:
    if a.p != b.p:
        raise PreconditionError("mixed p")
    rel = Lattice(a.r + b.r, IntMatrix.block_diag(a.rel.basis, b.rel.basis))
    shape = None
    if a.shape is not None and b.shape is not None:
        lp = a.shape.parts if isinstance(a.shape, DirectSum) else (a.shape,)
        rp = b.shape.parts if isinstance(b.shape, DirectSum) else (b.shape,)
        shape = DirectSum(lp + rp)
    return FinMod(a.p, a.r + b.r, rel, IntMatrix.block_diag(a.aut, b.aut), shape)


# -- randomized generation -----------------------------------------------------


def random_unimodular(rng, n: int, steps: Optional[int] = None) -> IntMatrix:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n <= 1:
        return IntMatrix(m)
    for _ in range(steps if steps is not None else 3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
        if rng.random() < 0.2:
            m[i] = [-x for x in m[i]]
    return IntMatrix(m)


def random_spec(rng, p: int, max_order: int = 64):
    """A random finite shape whose order stays within max_order."""
    parts = []
    budget = max_order
    for _ in range(rng.randint(1, 3)):
        choices = [TrivCyclic(n) for n in range(2, min(budget, 9) + 1)]
        choices += [
            CyclicR(q, k)
            for q in (2, 3, 5)
            for k in (1, 2)
            if q ** (k * p) <= budget
        ]
        if not choices:
            break
        leaf = rng.choice(choices)
        parts.append(leaf)
        budget //= spec_order(leaf, p)
    if not parts:
        parts = [TrivCyclic(rng.randint(2, 4))]
    return parts[0] if len(parts) == 1 else DirectSum(tuple(parts))


def random_module(rng, p: int, max_order: int = 64) -> FinMod:
    """Random finite module: a shape expression, possibly rebased by a random
    unimodular change of coordinates, possibly further collapsed by an
    invariant quotient.  Rebasing and collapsing drop the shape tag."""
    m = build(random_spec(rng, p, max_order), p)
    if rng.random() < 0.6:
        w = random_unimodular(rng, m.r)
        m = FinMod(p, m.r, m.rel.transform(w), w @ m.aut @ inv_unimodular(w))
    if rng.random() < 0.25 and m.order() > 2:
        elems = m.enumerate()
        extra = elems[rng.randrange(1, len(elems))]
        bigger = m.invariant_span([extra])
        if bigger != Lattice.full(m.r):
            m = FinMod(p, m.r, bigger, m.aut)
    return m
