"""K-theory of gadget graphs through finite boundary matrices.

The full graph is infinite along its rays, but a depth-L window already
determines the K-groups: a chain vertex deeper than the window interacts
with the window only through its net relation column, and that column is
kept exactly when its support lies inside the window.  Inward chains
contribute one extra ghost column per ray (the depth-(L+1) relation seen
from inside), outward chains lose their last column instead.  Nothing about
this closure is trusted blindly; stabilization_check recomputes everything
at several depths and demands agreement.

K0 is the cokernel of the boundary matrix, presented through Smith normal
form; K1 is its kernel, read off the same Smith form: the columns of the
column transform V past the rank span it, and their canonical basis is
checked to be annihilated by the boundary matrix.  The graph automorphism
permutes window vertices and relation columns compatibly, which induces
exact integer actions on both groups.

A depth-L window of a graph with c core vertices and r rays has c + r*L
vertices (see GadgetGraph.window_size); the CLI refuses a window larger
than MAX_WINDOW before building it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from .errors import InternalInvariantError, PreconditionError
from .graphkit import GadgetGraph, GroupGraphSpec, is_irreducible, validate_automorphism
from .intlinalg import (
    IntMatrix,
    Lattice,
    QuotientInvariants,
    inv_unimodular,
    quotient_invariants,
    snf,
    solve_columns,
)

# Largest window, in vertices, a graph command builds.  A strand-M window of
# depth L has 1 + M*L vertices, so strand 16 at depth 12 has 193.  A
# 2,048-vertex window already makes a boundary matrix of about four million
# entries, and Smith transforms of as many again.
MAX_WINDOW = 2048


def check_window(size: int, depth: int) -> None:
    """PreconditionError if a depth window of size vertices exceeds MAX_WINDOW."""
    if size > MAX_WINDOW:
        raise PreconditionError(
            f"depth-{depth} window of {size} vertices is too large (bound {MAX_WINDOW})"
        )


# -- boundary matrix ---------------------------------------------------------


@dataclass(frozen=True)
class BoundaryMatrix:
    """Relation matrix of a depth window: one row per instantiated vertex,
    one column per regular vertex whose net relation stays inside."""

    row_index: tuple[str, ...]
    col_index: tuple[str, ...]
    matrix: IntMatrix


def boundary_matrix(g: GadgetGraph, depth: int) -> BoundaryMatrix:
    """Net relation columns of the depth-L window.

    Candidates are the regular core vertices plus every chain vertex up to
    depth L+1.  A candidate's column is the target sum minus itself, loops
    folded in; it is kept iff its nonzero support lies inside the window.
    The emitter contributes a row but never a column.
    """
    if depth < 1:
        raise PreconditionError("window depth must be >= 1")
    window = g.window_vertices(depth)
    pos = {v: i for i, v in enumerate(window)}
    candidates = []
    for v in g.vertices:
        if v != g.emitter:
            candidates.append((v, g.core_targets(v)))
    for f in g.rays:
        for j in range(1, depth + 2):
            candidates.append((f.vertex(j), g.ray_targets(f, j)))
    keys = []
    cols = []
    for (name, targets) in candidates:
        net: dict[str, int] = {}
        for (t, m) in targets:
            net[t] = net.get(t, 0) + m
        net[name] = net.get(name, 0) - 1
        net = {t: c for t, c in net.items() if c}
        if any(t not in pos for t in net):
            continue
        col = [0] * len(window)
        for t, c in net.items():
            col[pos[t]] = c
        keys.append(name)
        cols.append(col)
    return BoundaryMatrix(window, tuple(keys), IntMatrix.from_cols(cols, rows=len(window)))


# -- K-groups ---------------------------------------------------------------


@dataclass(frozen=True)
class KResult:
    """K-theory of one window, with the data needed to act on it.

    invariants describe K0; coord_orders gives the order of each retained
    SNF coordinate (0 meaning free), and vertex classes are coordinate
    tuples over those.  k1_basis spans the kernel of the boundary matrix.
    The induced automorphism matrices are filled in by induced_action.
    u_inv, the inverse of the SNF row transform, is computed on first use.
    """

    depth: int
    boundary: BoundaryMatrix
    invariants: QuotientInvariants
    coord_orders: tuple[int, ...]
    vertex_classes: dict[str, tuple[int, ...]]
    k1_basis: IntMatrix
    _u: IntMatrix = field(repr=False)
    _jrows: tuple[int, ...] = field(repr=False)
    induced_k0: Optional[IntMatrix] = None
    induced_k1: Optional[IntMatrix] = None

    @property
    def k1_rank(self) -> int:
        return self.k1_basis.cols

    @cached_property
    def u_inv(self) -> IntMatrix:
        return inv_unimodular(self._u)

    def reduce_class(self, vec) -> tuple[int, ...]:
        return tuple(x % d if d else x for x, d in zip(vec, self.coord_orders))

    def reduce_matrix(self, m: IntMatrix) -> IntMatrix:
        rows = [
            [x % d if d else x for x in m.row(i)]
            for i, d in zip(range(m.rows), self.coord_orders)
        ]
        return IntMatrix(rows, shape=(m.rows, m.cols))

    def class_of(self, name: str) -> tuple[int, ...]:
        """K0 coordinates of a window vertex's class."""
        if name not in self.boundary.row_index:
            raise PreconditionError(f"{name!r} is not a window vertex")
        i = self.boundary.row_index.index(name)
        return self.reduce_class(tuple(self._u[j, i] for j in self._jrows))


def compute_k(g: GadgetGraph, depth: int) -> KResult:
    if depth < 2:
        raise PreconditionError("K-theory windows need depth >= 2")
    bnd = boundary_matrix(g, depth)
    res = snf(bnd.matrix)
    n = bnd.matrix.rows
    rank = res.rank
    diag = res.diag
    jrows = tuple(i for i in range(n) if i >= rank or diag[i] > 1)
    coord_orders = tuple(diag[i] if i < rank else 0 for i in jrows)
    invariants = QuotientInvariants(tuple(d for d in diag[:rank] if d > 1), n - rank)
    # V is unimodular and U A V = S, so V's columns past the rank span ker A
    ncols = bnd.matrix.cols
    k1_basis = Lattice(ncols, res.v.submatrix(range(ncols), range(rank, ncols))).basis
    if not (bnd.matrix @ k1_basis).is_zero():
        raise InternalInvariantError("K1 basis is not in the kernel of the boundary matrix")
    kr = KResult(
        depth=depth,
        boundary=bnd,
        invariants=invariants,
        coord_orders=coord_orders,
        vertex_classes={},
        k1_basis=k1_basis,
        _u=res.u,
        _jrows=jrows,
    )
    for v in g.vertices:
        kr.vertex_classes[v] = kr.class_of(v)
    return kr


def induced_action(g: GadgetGraph, kr: KResult) -> KResult:
    """Fill in the automorphism's exact action on K0 and K1.

    The vertex permutation sends relation columns to relation columns, so
    conjugating into SNF coordinates yields a K0 matrix on the retained
    coordinates and a change-of-basis solve yields the K1 matrix.
    """
    validate_automorphism(g)
    bnd = kr.boundary
    for c in bnd.col_index:
        if g.sigma_window(c) not in bnd.col_index:
            raise InternalInvariantError(f"column {c!r} maps outside the column set")
    p_row, p_col = (
        IntMatrix.unit_columns(len(names), [names.index(g.sigma_window(v)) for v in names])
        for names in (bnd.row_index, bnd.col_index)
    )
    if p_row @ bnd.matrix != bnd.matrix @ p_col:
        raise InternalInvariantError("vertex permutation does not permute relations")

    atilde = kr._u @ p_row @ kr.u_inv
    n = bnd.matrix.rows
    rank = n - kr.invariants.free_rank
    diag = {i: d for i, d in zip(kr._jrows, kr.coord_orders)}
    dcols = [diag.get(j, 1) for j in range(rank)]
    for i, row in enumerate(atilde.entries()):
        di = diag.get(i, 1) if i < rank else 0
        for dj, x in zip(dcols, row):
            val = dj * x
            if (di == 0 and val != 0) or (di and val % di):
                raise InternalInvariantError("induced K0 action is not well defined")
    m0 = kr.reduce_matrix(atilde.submatrix(kr._jrows, kr._jrows))
    for v in g.vertices:
        if kr.reduce_class(m0.apply(kr.class_of(v))) != kr.class_of(g.sigma_vertex(v)):
            raise InternalInvariantError(f"induced K0 action disagrees at {v!r}")

    if kr.k1_basis.cols == 0:
        m1 = IntMatrix.zeros(0, 0)
    else:
        m1 = solve_columns(kr.k1_basis, p_col @ kr.k1_basis)
        if m1 is None:
            raise InternalInvariantError("kernel is not invariant under the action")
    return replace(kr, induced_k0=m0, induced_k1=m1)


# -- truncation oracle -------------------------------------------------------


def core_class_relations(kr: KResult) -> Lattice:
    """Integer relations among the core vertex classes in K0.

    The lattice {w : sum_x w_x [x] = 0} is presentation independent, which
    makes windows of different depths comparable even though their SNF
    coordinates differ.
    """
    core = [i for i, v in enumerate(kr.boundary.row_index) if "[" not in v]
    # the K0 coordinates of the core classes, and the relations among K0 coordinates
    classes = kr._u.submatrix(kr._jrows, core)
    return Lattice(len(kr.coord_orders), IntMatrix.diag(kr.coord_orders)).preimage(classes)


@dataclass(frozen=True)
class TruncationReport:
    depths: tuple[int, ...]
    invariants: tuple[QuotientInvariants, ...]
    k1_ranks: tuple[int, ...]
    core_relations: tuple[Lattice, ...]
    stable: bool


def stabilization_check(g: GadgetGraph, depths=(2, 3, 4)) -> TruncationReport:
    """Recompute K-theory at several window depths and compare.

    Stability means equal invariant factors, free rank, kernel rank and
    core class relations everywhere; every shipped construction must be
    stable, and a mis-closed ray shows up here as depth dependence.
    """
    depths = tuple(depths)
    if len(depths) < 2 or any(d < 2 for d in depths):
        raise PreconditionError("need at least two depths, all >= 2")
    results = [compute_k(g, d) for d in depths]
    invariants = tuple(r.invariants for r in results)
    k1_ranks = tuple(r.k1_rank for r in results)
    relations = tuple(core_class_relations(r) for r in results)
    stable = (
        all(x == invariants[0] for x in invariants)
        and all(x == k1_ranks[0] for x in k1_ranks)
        and all(x == relations[0] for x in relations)
    )
    return TruncationReport(depths, invariants, k1_ranks, relations, stable)


# -- group graph verification ------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class GroupVerification:
    checks: tuple[PropertyCheck, ...]
    kresult: KResult

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise PreconditionError(f"no check named {name!r}")


def _generator_weights(row_index, spec: GroupGraphSpec) -> IntMatrix:
    """Group-valued weights on window vertices descending to K0 -> G.

    Generators carry their group value, the sign vertices of relation b
    carry the images of b's parts, everything else carries zero; every
    relation column then sums into the relation lattice.
    """
    pmat = spec.pi_matrix()
    weights = {a: spec.pi0_of(a) for a in spec.labels}
    for i, b in enumerate(spec.bvecs):
        plus = tuple(max(x, 0) for x in b)
        minus = tuple(max(-x, 0) for x in b)
        if any(plus):
            weights[f"z{i}+"] = pmat.apply(plus)
        if any(minus):
            weights[f"z{i}-"] = tuple(-x for x in pmat.apply(minus))
    zero = (0,) * spec.group_rank
    cols = [weights.get(v, zero) for v in row_index]
    return IntMatrix.from_cols(cols, rows=spec.group_rank)


def verify_group_graph(g: GadgetGraph, spec: GroupGraphSpec, depth: int = 3) -> GroupVerification:
    """Run every structural and K-theoretic check tying g to its group.

    Returns one PropertyCheck per claim; passed means every claim holds.
    """
    group = spec.validate()
    checks = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except (PreconditionError, InternalInvariantError) as e:
            ok, detail = False, str(e)
        checks.append(PropertyCheck(name, bool(ok), detail))

    run(
        "finite-description",
        lambda: (True, f"{len(g.vertices)} core vertices, {len(g.rays)} ray families"),
    )
    run("irreducible", lambda: (is_irreducible(g), "depth-2 window strongly connected"))

    def check_emitter():
        if g.emitter is None:
            return False, "no infinite emitter"
        sinks = [v for v in g.vertices if v != g.emitter and not g.core_targets(v)]
        return not sinks, "unique emitter, no sinks" if not sinks else f"sinks: {sinks}"

    run("unique-infinite-emitter", check_emitter)

    # p is prime, so an action of order dividing p is trivial or of order p
    ord_alpha = 1 if group.is_trivial_action() else spec.p

    def check_aut():
        report = validate_automorphism(g)
        tag = f"graph order {report.order}, action order {ord_alpha}"
        if report.order == 1 and spec.p > 1:
            tag += " (degenerate: trivial action accepted)"
        return report.order == ord_alpha, tag

    run("automorphism", check_aut)

    def check_injection():
        labels = spec.labels
        ok = all(a in g.vertices for a in labels) and all(
            g.sigma_vertex(a) == spec.sigma_label(a) for a in labels
        )
        return ok, f"{len(labels)} generators embed equivariantly"

    run("equivariant-injection", check_injection)

    kr = compute_k(g, depth)
    target = group.invariants()

    run(
        "k0-invariant-factors",
        lambda: (kr.invariants == target, f"{kr.invariants.describe()} vs {target.describe()}"),
    )

    weights = _generator_weights(kr.boundary.row_index, spec)
    rel = spec.group_rel
    # the map K0 -> G on the retained SNF coordinates
    phi = (weights @ kr.u_inv).submatrix(range(spec.group_rank), kr._jrows)

    def check_iso():
        mapped = weights @ kr.boundary.matrix
        for j in range(mapped.cols):
            if not rel.member(mapped.col(j)):
                return False, f"column {kr.boundary.col_index[j]} does not vanish in G"
        for a in spec.labels:
            diff = [
                x - y
                for x, y in zip(phi.apply(kr.class_of(a)), spec.pi0_of(a))
            ]
            if not rel.member(diff):
                return False, f"class of {a} does not map to its group value"
        return True, "explicit isomorphism carries [a] to the group value of a"

    run("k0-explicit-isomorphism", check_iso)

    run("k1-trivial", lambda: (kr.k1_rank == 0, f"kernel rank {kr.k1_rank}"))

    def check_functorial():
        mapped = kr._u @ kr.boundary.matrix
        rows = [mapped.row(i) for i in kr._jrows]
        for j in range(mapped.cols):
            col = kr.reduce_class(tuple(row[j] for row in rows))
            if any(col):
                return False, f"relation column {kr.boundary.col_index[j]} has nonzero class"
        return True, "every relation column has zero class"

    run("class-map-functoriality", check_functorial)

    run(
        "cross-pipeline-invariants",
        lambda: (
            quotient_invariants(len(spec.labels), spec.b_lattice()) == kr.invariants,
            "module-theoretic quotient agrees with graph K0",
        ),
    )

    def check_induced():
        kri = induced_action(g, kr)
        for a in spec.labels:
            lhs = phi.apply(kri.reduce_class(kri.induced_k0.apply(kr.class_of(a))))
            rhs = spec.group_aut.apply(phi.apply(kr.class_of(a)))
            if not rel.member([x - y for x, y in zip(lhs, rhs)]):
                return False, f"induced action disagrees with the group action at {a}"
        return True, "induced K0 action transports to the group automorphism"

    run("induced-k0-equals-action", check_induced)

    return GroupVerification(tuple(checks), kr)
