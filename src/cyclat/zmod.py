"""Finitely generated abelian groups with a designated automorphism of
prime order p, modeled as ambient Z^r modulo a relation lattice.

The concrete representation (rather than bare invariant factors) matters:
the constructions downstream need distinguished elements, equivariant maps
and honest submodule inclusions, none of which survive passing to an
isomorphism class.

Canonical element representatives live in the HNF fundamental domain of
the relation lattice, so plain tuples serve as elements and tuple equality
is element equality.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence

from .cyclo_ring import generator, is_prime, norm
from .errors import ParseError, PreconditionError
from .intlinalg import (
    IntMatrix,
    Lattice,
    QuotientInvariants,
    inv_unimodular,
    quotient_invariants,
)

# Largest module order FinMod.enumerate lists.  Far above every module the
# tests and the acceptance gate use (at most a few hundred elements); a
# bigger order would only exhaust memory or time.
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


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([+(),])|(\S))")


def parse_modspec(text: str):
    """Parse the textual shape grammar: triv(n), trivfree(r), cyclicR(q,k),
    freeR(r), joined by infix '+'."""
    tokens: list[str] = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise ParseError(f"bad character {m.group(4)!r} in module spec")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expect: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of module spec")
        tok = tokens[pos]
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, got {tok!r}")
        pos += 1
        return tok

    def int_arg() -> int:
        tok = take()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, got {tok!r}")
        return int(tok)

    def leaf():
        name = take()
        take("(")
        first = int_arg()
        if name == "cyclicR":
            take(",")
            second = int_arg()
            take(")")
            return CyclicR(first, second)
        take(")")
        if name == "triv":
            return TrivCyclic(first)
        if name == "trivfree":
            return TrivFree(first)
        if name == "freeR":
            return FreeR(first)
        raise ParseError(f"unknown shape keyword {name!r}")

    parts = [leaf()]
    while peek() == "+":
        take("+")
        parts.append(leaf())
    if pos != len(tokens):
        raise ParseError(f"trailing junk in module spec: {tokens[pos:]}")
    return parts[0] if len(parts) == 1 else DirectSum(tuple(parts))


def spec_order(spec, p: int) -> Optional[int]:
    """Order of the module build(spec, p) realizes, or None when it is
    infinite: read off the shape, so no matrix is built.  Refuses an invalid
    shape as build does."""
    if isinstance(spec, TrivCyclic):
        if spec.n < 1:
            raise PreconditionError("triv(n) needs n >= 1")
        return spec.n
    if isinstance(spec, (TrivFree, FreeR)):
        if spec.rank < 1:
            raise PreconditionError("free rank must be >= 1")
        return None
    if isinstance(spec, CyclicR):
        if not is_prime(spec.q) or spec.k < 1:
            raise PreconditionError("cyclicR(q,k) needs q prime and k >= 1")
        return spec.q ** (spec.k * p)
    if isinstance(spec, DirectSum):
        if not spec.parts:
            raise PreconditionError("empty direct sum")
        orders = [spec_order(part, p) for part in spec.parts]
        return None if None in orders else math.prod(orders)
    raise PreconditionError(f"not a module shape: {spec!r}")


def check_listable(order: int) -> None:
    """Refuse to list the elements of a module of this order."""
    if order > MAX_ENUMERATION:
        raise PreconditionError(
            f"module of order {order} is too large to list its elements"
            f" (bound {MAX_ENUMERATION})"
        )


# -- the module model ---------------------------------------------------------


class FinMod:
    """The group Z^r / rel with an automorphism given by the matrix aut.

    Required: aut maps rel into rel, and aut^p is the identity modulo rel,
    so the induced map on the quotient has order dividing p.  The group may
    be infinite (rel not of full rank); enumeration then refuses.
    """

    __slots__ = ("p", "r", "rel", "aut", "shape", "_elems", "_index", "_perm", "_invariants")

    def __init__(self, p: int, r: int, rel: Lattice, aut: IntMatrix, shape=None):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if rel.ambient != r:
            raise PreconditionError("relation lattice lives in the wrong space")
        if aut.rows != r or aut.cols != r:
            raise PreconditionError("automorphism matrix has the wrong shape")
        if rel.solve(aut @ rel.basis) is None:
            raise PreconditionError("automorphism does not preserve the relations")
        if rel.solve(aut.pow(p) - IntMatrix.identity(r)) is None:
            raise PreconditionError("automorphism order does not divide p on the quotient")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "aut", aut)
        object.__setattr__(self, "shape", shape)
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
        if not self.is_finite():
            raise PreconditionError("cannot enumerate an infinite module")
        if self._elems is None:
            check_listable(self.order())
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

    def action_permutation(self) -> tuple[int, ...]:
        """Index of the image of each element under the action, in enumeration order."""
        if self._perm is None:
            perm = tuple(self._index[self.act(e)] for e in self.enumerate())
            object.__setattr__(self, "_perm", perm)
        return self._perm

    def orbits(self) -> list[list[tuple[int, ...]]]:
        """Partition of the elements into action orbits (sizes 1 or p)."""
        elems, perm = self.enumerate(), self.action_permutation()
        seen, out = set(), []
        for i in range(len(elems)):
            if i not in seen:
                orb = [i]
                while perm[orb[-1]] != i:
                    orb.append(perm[orb[-1]])
                seen.update(orb)
                out.append([elems[j] for j in orb])
        return out

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
    """Realize a shape expression as a concrete FinMod."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    spec_order(spec, p)  # validates the shape
    return _build(spec, p)


def _build(spec, p: int) -> FinMod:
    if isinstance(spec, TrivCyclic):
        return FinMod(p, 1, Lattice.spanned_by([(spec.n,)], 1), IntMatrix.identity(1), spec)
    if isinstance(spec, TrivFree):
        return FinMod(p, spec.rank, Lattice(spec.rank), IntMatrix.identity(spec.rank), spec)
    if isinstance(spec, CyclicR):
        q = spec.q**spec.k
        return FinMod(p, p, Lattice(p, q * IntMatrix.identity(p)), generator(p).matrix(), spec)
    if isinstance(spec, FreeR):
        shift = generator(p).matrix()
        n = p * spec.rank
        return FinMod(p, n, Lattice(n), IntMatrix.block_diag(*([shift] * spec.rank)), spec)
    if isinstance(spec, DirectSum):
        mods = [_build(part, p) for part in spec.parts]
        out = mods[0]
        for m in mods[1:]:
            out = direct_sum(out, m)
        return out
    raise PreconditionError(f"not a module shape: {spec!r}")


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
