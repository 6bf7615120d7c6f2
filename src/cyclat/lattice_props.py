"""Property checkers for kernels of module presentations.

Everything here decides an exact lattice statement: whether a kernel
splits off its norm operator the way a free-plus-trivial module does,
whether twisting commutes with passing to a submodule, whether one
kernel sits purely inside another, and whether it splits off as an
equivariant direct summand.  Verdicts carry witnesses that are
re-checked by direct arithmetic before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cyclo_ring import RingElt, norm
from .errors import InternalInvariantError, PreconditionError
from .intlinalg import IntMatrix, Lattice, snf, solve_columns
from .presentation import (
    EquivariantLattice,
    StabilizedPresentation,
    build_aug,
    stabilize_presentation,
)
from .zmod import FinMod, Submodule


class InclusionPair:
    """An action-closed submodule together with the induced kernel pair.

    The small presentation's element basis embeds into the big one, so
    both kernels live in Z^|M| and can be compared as lattices there:
    embed_index[i] is the big basis index of the i-th small element.  t_m0
    is the twist image t M_0 of the submodule, in the big ambient.
    """

    __slots__ = ("M", "sub", "pres", "pres0", "N", "N0", "embed_index", "embed_matrix", "t_m0")

    def __init__(self, M: FinMod, sub: Submodule):
        if sub.parent is not M:
            raise PreconditionError("submodule belongs to a different module")
        self.M = M
        self.sub = sub
        self.pres = build_aug(M)
        self.pres0 = build_aug(sub.module)
        m = self.pres.size
        self.embed_index = tuple(self.pres.index(sub.embed(x)) for x in self.pres0.elements)
        self.embed_matrix = IntMatrix.unit_columns(m, self.embed_index)
        self.N = self.pres.N
        self.N0 = Lattice(m, self.embed_matrix @ self.pres0.N.basis)
        # N is certified as all of {w : pi w in M.rel}, so N0 lies in it when pi maps it into M.rel
        if M.rel.solve(self.pres.pi_matrix @ self.N0.basis) is None:
            raise InternalInvariantError("small kernel must embed in the big kernel")
        self.t_m0 = Lattice(M.r, IntMatrix.hstack(M.twist_matrix @ sub.span.basis, M.rel.basis))

    @property
    def p(self) -> int:
        return self.M.p

    def eq(self) -> EquivariantLattice:
        return self.pres.kernel_pair()

    def split_support(self, v) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """v = v0 + v1 with v0 supported on submodule elements, v1 on the rest."""
        inside = set(self.embed_index)
        v0 = tuple(c if i in inside else 0 for i, c in enumerate(v))
        v1 = tuple(c if i not in inside else 0 for i, c in enumerate(v))
        return v0, v1


@dataclass(frozen=True)
class IntersectionReport:
    """Outcome of comparing (t N) inter N_0 with t N_0."""

    ok: bool
    lhs: Lattice
    rhs: Lattice

    def __bool__(self) -> bool:
        return self.ok


def check_t_intersection(pair: InclusionPair) -> IntersectionReport:
    """Twisting the big kernel then intersecting equals twisting the small one.

    Predicted true for every valid pair; a false return is a bug trap,
    so the report keeps both lattices for inspection.
    """
    m = pair.pres.size
    tw = pair.pres.action - IntMatrix.identity(m)
    t_n = Lattice(m, tw @ pair.N.basis)
    t_n0 = Lattice(m, tw @ pair.N0.basis)
    lhs = t_n.intersect(pair.N0)
    return IntersectionReport(lhs == t_n0, lhs, t_n0)


def check_t_condition(pair: InclusionPair) -> bool:
    """(t M) inter M_0 == t M_0, decided inside the big module."""
    return pair.M.t_image().intersect(pair.sub.span) == pair.t_m0


@dataclass(frozen=True)
class PurityVerdict:
    """pure: eta in N_0 with lam eta = lam xi; impure: lam xi escapes lam N_0."""

    pure: bool
    xi: tuple
    lam: RingElt
    eta: Optional[tuple] = None


def _verify_pure(pair: InclusionPair, xi, lam, eta) -> PurityVerdict:
    lam_mat = lam.on(pair.pres.action)
    if not pair.N0.member(eta):
        raise InternalInvariantError("purity witness escapes the small kernel")
    if lam_mat.apply(eta) != lam_mat.apply(xi):
        raise InternalInvariantError("purity witness does not reproduce lam xi")
    return PurityVerdict(True, tuple(xi), lam, tuple(eta))


def _verify_impure(pair: InclusionPair, xi, lam) -> PurityVerdict:
    lam_mat = lam.on(pair.pres.action)
    lx = lam_mat.apply(xi)
    if not pair.N0.member(lx):
        raise InternalInvariantError("impurity witness must have lam xi in N_0")
    if Lattice(pair.pres.size, lam_mat @ pair.N0.basis).member(lx):
        raise InternalInvariantError("claimed impurity witness is actually pure")
    return PurityVerdict(False, tuple(xi), lam)


def _solve_in_module(M: FinMod, target, within: Optional[Lattice] = None):
    """Some w with (alpha - 1) w = target in M, w confined to `within` if given."""
    basis = within.basis if within is not None else IntMatrix.identity(M.r)
    lhs = IntMatrix.hstack(M.twist_matrix @ basis, M.rel.basis)
    sol = solve_columns(lhs, IntMatrix.from_cols([target], rows=M.r))
    if sol is None:
        return None
    coeffs = [sol[i, 0] for i in range(basis.cols)]
    return M.reduce(basis.apply(coeffs))


def purity_witness(pair: InclusionPair, xi, lam: RingElt) -> PurityVerdict:
    """Decide whether lam xi pulls back into N_0, following the proof cases.

    Twist-divisible lam: correct xi by the hat of the fixed point pi(xi_1).
    Otherwise lam is a scalar times the norm, and the correction comes
    from solving t w_0 = t w inside the submodule, which is exactly
    where the (t M) inter M_0 = t M_0 condition enters.  When the
    constructive route fails, the verdict falls back to solving the
    lattice membership directly, so it is always exact.
    """
    if lam.p != pair.p:
        raise PreconditionError("ring element has the wrong modulus")
    xi = tuple(xi)
    m = pair.pres.size
    if len(xi) != m:
        raise PreconditionError("vector not in the element lattice")
    if not pair.N.member(xi):
        raise PreconditionError("xi must lie in the big kernel")
    lam_mat = lam.on(pair.pres.action)
    lam_xi = lam_mat.apply(xi)
    if not pair.N0.member(lam_xi):
        raise PreconditionError("lam xi must lie in the small kernel")

    if pair.N0.member(xi):
        return _verify_pure(pair, xi, lam, xi)
    if lam.is_zero():
        return _verify_pure(pair, xi, lam, (0,) * m)

    xi0, xi1 = pair.split_support(xi)
    if lam.aug() == 0:
        # twist divides lam: pi(xi_1) is a fixed point of the submodule
        y = pair.M.reduce(pair.pres.pi_matrix.apply(xi1))
        eta = list(xi0)
        eta[pair.pres.index(y)] += 1
        return _verify_pure(pair, xi, lam, tuple(eta))

    # lam xi in N_0 with xi_1 nonzero forces lam to be a norm multiple
    if any(c != lam.coeffs[0] for c in lam.coeffs):
        raise InternalInvariantError("non-norm lam escaped the twist-divisible case")
    y = pair.M.reduce(pair.pres.pi_matrix.apply(xi1))
    w = _solve_in_module(pair.M, y)
    if w is None:
        raise InternalInvariantError("pi(xi_1) must lie in the twist image")
    w0 = _solve_in_module(pair.M, pair.M.reduce(pair.M.twist_matrix.apply(w)), pair.sub.span)
    if w0 is not None:
        eta = [x + t for x, t in zip(xi0, pair.pres.action.col(pair.pres.index(w0)))]
        eta[pair.pres.index(w0)] -= 1
        return _verify_pure(pair, xi, lam, tuple(eta))

    # constructive route blocked; decide membership of lam xi in lam N_0 directly
    sol = solve_columns(lam_mat @ pair.N0.basis, IntMatrix.from_cols([lam_xi], rows=m))
    if sol is not None:
        eta = pair.N0.basis.apply([sol[i, 0] for i in range(pair.N0.rank)])
        return _verify_pure(pair, xi, lam, eta)
    return _verify_impure(pair, xi, lam)


def find_impurity_witness(pair: InclusionPair) -> Optional[PurityVerdict]:
    """Impurity witness built from an element with t z in M_0 but not in t M_0.

    Returns None when the twist condition holds (no witness exists on
    this construction).  The witness is xi = (tz)-hat - (alpha z)-hat
    + z-hat paired with the norm element, verified before return.
    """
    if check_t_condition(pair):
        return None
    M = pair.M
    for z in M.enumerate():
        tz = M.reduce(M.twist_matrix.apply(z))
        if pair.sub.span.member(tz) and not pair.t_m0.member(tz):
            xi = pair.pres.combination([(tz, 1), (M.act(z), -1), (z, 1)])
            return _verify_impure(pair, xi, norm(pair.p))
    raise InternalInvariantError("failed twist condition must expose a witness")


def _sylvester_solve(a: IntMatrix, b: IntMatrix, c: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with a X - X b = c, or None; X is a.rows x b.rows."""
    m, n = a.rows, b.rows
    rows = []
    rhs = []
    for j in range(n):
        for i in range(m):
            row = [0] * (m * n)
            for kk in range(m):
                row[j * m + kk] += a[i, kk]
            for jj in range(n):
                row[jj * m + i] -= b[jj, j]
            rows.append(tuple(row))
            rhs.append(c[i, j])
    sol = solve_columns(IntMatrix(rows), IntMatrix.from_cols([rhs]))
    if sol is None:
        return None
    return IntMatrix(tuple(tuple(sol[j * m + i, 0] for j in range(n)) for i in range(m)))


def find_equivariant_projection(n0: Lattice, eq: EquivariantLattice) -> Optional[IntMatrix]:
    """Projection of eq's lattice onto n0 commuting with the action, or None.

    Returned in the coordinates of eq.lattice.basis.  Any such projection
    is upper triangular in coordinates adapted to n0, which reduces the
    search to one integer Sylvester equation; no solution there proves
    absence, it is never a timeout.
    """
    s_basis = eq.lattice.solve(n0.basis)
    if s_basis is None:
        raise PreconditionError("candidate summand must lie inside the lattice")
    r, r0 = eq.lattice.rank, s_basis.cols
    c = eq.restricted()
    summand = Lattice(r, s_basis)
    if summand.solve(c @ s_basis) is None:
        raise PreconditionError("candidate summand is not action-invariant")
    if r0 == 0:
        return IntMatrix.zeros(r, r)
    if r0 == r:
        return IntMatrix.identity(r)

    res = snf(s_basis)
    if res.rank != r0 or any(d != 1 for d in res.diag[:r0]):
        return None  # not a pure subgroup, so never a summand
    u, u_inv = res.u, res.u_inv
    a_tilde = u @ c @ u_inv
    for i in range(r0, r):
        for j in range(r0):
            if a_tilde[i, j] != 0:
                raise InternalInvariantError("invariant sublattice must be triangular")
    a11 = a_tilde.submatrix(range(r0), range(r0))
    a12 = a_tilde.submatrix(range(r0), range(r0, r))
    a22 = a_tilde.submatrix(range(r0, r), range(r0, r))
    x = _sylvester_solve(a11, a22, a12)
    if x is None:
        return None
    p_tilde = IntMatrix.vstack(
        IntMatrix.hstack(IntMatrix.identity(r0), x),
        IntMatrix.zeros(r - r0, r),
    )
    proj = u_inv @ p_tilde @ u
    _verify_projection(proj, c, s_basis, summand)
    return proj


def _verify_projection(proj: IntMatrix, c: IntMatrix, s_basis: IntMatrix, summand: Lattice) -> None:
    if proj @ proj != proj:
        raise InternalInvariantError("projection is not idempotent")
    if proj @ c != c @ proj:
        raise InternalInvariantError("projection does not commute with the action")
    if proj @ s_basis != s_basis:
        raise InternalInvariantError("projection must fix the summand")
    if summand.solve(proj) is None:
        raise InternalInvariantError("projection must land in the summand")


@dataclass(frozen=True)
class InclusionDiagram:
    """Two stabilized rows with an injective equivariant column between them."""

    pair: InclusionPair
    row0: StabilizedPresentation
    row: StabilizedPresentation
    column_map: IntMatrix
    kernel_projection: IntMatrix


@dataclass(frozen=True)
class DiagramReport:
    condition_holds: bool
    diagram: Optional[InclusionDiagram]
    impurity: Optional[PurityVerdict]


def inclusion_diagram(pair: InclusionPair, k_max: int = 4, seed: int = 0) -> DiagramReport:
    """Either the commuting two-row diagram or a refusal with an impurity witness.

    The twist condition decides which: when it holds the stabilized rows
    of the module and submodule connect by an injective equivariant
    column and the small kernel splits off; when it fails that is
    impossible, and the returned witness shows why.
    """
    impurity = find_impurity_witness(pair)
    if impurity is not None:
        return DiagramReport(False, None, impurity)

    row0 = stabilize_presentation(pair.pres0, k_max, seed)
    row = stabilize_presentation(pair.pres, k_max, seed, row0.k)
    p = pair.p
    m = pair.pres.size
    big = m + row.k * p
    jmap = IntMatrix.unit_columns(big, pair.embed_index + tuple(range(m, m + row0.k * p)))

    act0 = row0.n2.action
    act = row.n2.action
    if jmap @ act0 != act @ jmap:
        raise InternalInvariantError("column map must be equivariant")
    lhs = row.pi_matrix @ jmap
    rhs = pair.sub.inclusion @ row0.pi_matrix
    if pair.M.rel.solve(lhs - rhs) is None:
        raise InternalInvariantError("column map must commute with the projections")

    # N1 is the presentation kernel plus row.k regular blocks, as the search built it
    small_kernel = Lattice(big, jmap @ row0.n1.ambient.basis)
    proj = find_equivariant_projection(small_kernel, pair.eq().stabilized(row.k))
    if proj is None:
        raise InternalInvariantError("twist condition held but the kernel does not split")
    diagram = InclusionDiagram(pair, row0, row, jmap, proj)
    return DiagramReport(True, diagram, None)
