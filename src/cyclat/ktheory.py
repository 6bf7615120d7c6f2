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
form U A V = S; only the rows J of U whose invariant factor is not 1 carry
K0 coordinates, and every check built on U reads those rows alone.  K1 is
the kernel, read off the same Smith form: the columns of the column
transform V past the rank span it, are checked to be annihilated by the
boundary matrix, and give the K1 rank; their canonical basis, a Lattice,
is built the first time it is read.  The graph automorphism permutes window
vertices and relation columns compatibly, which induces exact integer
actions on both groups.

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
from .intlinalg import IntMatrix, Lattice, QuotientInvariants, quotient_invariants, snf

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

    @cached_property
    def row_pos(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.row_index)}

    @cached_property
    def col_pos(self) -> dict[str, int]:
        return {v: j for j, v in enumerate(self.col_index)}


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
    rows = [{} for _ in window]  # the kept columns, written into the rows they meet
    for (name, targets) in candidates:
        net = {name: -1}
        for (t, m) in targets:
            net[t] = net.get(t, 0) + m
        if all(t in pos for t, c in net.items() if c):
            for t, c in net.items():
                if c:
                    rows[pos[t]][len(keys)] = c
            keys.append(name)
    return BoundaryMatrix(window, tuple(keys), IntMatrix._wrap(rows, len(window), len(keys)))


# -- K-groups ---------------------------------------------------------------


@dataclass(frozen=True)
class KResult:
    """K-theory of one window, with the data needed to act on it.

    invariants describe K0; coord_orders gives the order of each retained
    SNF coordinate (0 meaning free), and vertex classes are coordinate
    tuples over those.  _uj holds the retained rows _jrows of the SNF row
    transform U, the only rows any K0 coordinate reads; u_inv, the inverse
    of U, comes from the same elimination.  _k1_cols are the columns of V
    spanning the kernel of the boundary matrix, and k1, that kernel as a
    Lattice, is built when first read.  The induced automorphism matrices
    are filled in by induced_action.
    """

    depth: int
    boundary: BoundaryMatrix
    invariants: QuotientInvariants
    coord_orders: tuple[int, ...]
    vertex_classes: dict[str, tuple[int, ...]]
    _k1_cols: IntMatrix = field(repr=False)
    _uj: IntMatrix = field(repr=False)
    u_inv: IntMatrix = field(repr=False)
    _jrows: tuple[int, ...] = field(repr=False)
    induced_k0: Optional[IntMatrix] = None
    induced_k1: Optional[IntMatrix] = None

    @cached_property
    def k1(self) -> Lattice:
        return Lattice(self._k1_cols.rows, self._k1_cols)

    @property
    def k1_basis(self) -> IntMatrix:
        return self.k1.basis

    @property
    def k1_rank(self) -> int:
        # V is unimodular, so its kernel columns are independent
        return self._k1_cols.cols

    def reduce_class(self, vec) -> tuple[int, ...]:
        return tuple(x % d if d else x for x, d in zip(vec, self.coord_orders))

    def reduce_matrix(self, m: IntMatrix) -> IntMatrix:
        return IntMatrix.from_cols([self.reduce_class(c) for c in m.columns()], rows=m.rows)

    def class_of(self, name: str) -> tuple[int, ...]:
        """K0 coordinates of a window vertex's class."""
        i = self.boundary.row_pos.get(name)
        if i is None:
            raise PreconditionError(f"{name!r} is not a window vertex")
        return self.reduce_class(self._uj.col(i))


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
    k1_cols = res.v.submatrix(range(ncols), range(rank, ncols))
    if any(bnd.matrix.product_rows(k1_cols)):
        raise InternalInvariantError("K1 basis is not in the kernel of the boundary matrix")
    kr = KResult(
        depth=depth,
        boundary=bnd,
        invariants=invariants,
        coord_orders=coord_orders,
        vertex_classes={},
        _k1_cols=k1_cols,
        _uj=res.u.submatrix(jrows, range(n)),
        u_inv=res.u_inv,
        _jrows=jrows,
    )
    for v in g.vertices:
        kr.vertex_classes[v] = kr.class_of(v)
    return kr


def induced_action(g: GadgetGraph, kr: KResult) -> KResult:
    """Fill in the automorphism's exact action on K0 and K1.

    The vertex permutation sends relation columns to relation columns, so
    conjugating into SNF coordinates yields a K0 matrix on the retained
    coordinates and a change-of-basis solve yields the K1 matrix.  The
    conjugate U P U^-1 is well defined on K0 when row i times column j's
    invariant factor d_j is a multiple of d_i; only the retained rows J
    are computed, since every other row has d_i = 1, where that always
    holds.
    """
    validate_automorphism(g)
    bnd = kr.boundary
    for c in bnd.col_index:
        if g.sigma_window(c) not in bnd.col_pos:
            raise InternalInvariantError(f"column {c!r} maps outside the column set")
    p_row, p_col = (
        IntMatrix.unit_columns(len(names), [pos[g.sigma_window(v)] for v in names])
        for names, pos in ((bnd.row_index, bnd.row_pos), (bnd.col_index, bnd.col_pos))
    )
    permuted = zip(p_row.product_rows(bnd.matrix), bnd.matrix.product_rows(p_col))
    if any(x != y for x, y in permuted):
        raise InternalInvariantError("vertex permutation does not permute relations")

    atilde = kr._uj @ p_row @ kr.u_inv  # rows J of U P U^-1
    rank = bnd.matrix.rows - kr.invariants.free_rank
    diag = {i: d for i, d in zip(kr._jrows, kr.coord_orders)}
    for k, di in enumerate(kr.coord_orders):
        for j, x in atilde.nonzeros(k):
            if j < rank:
                val = diag.get(j, 1) * x
                if (di == 0 and val != 0) or (di and val % di):
                    raise InternalInvariantError("induced K0 action is not well defined")
    m0 = kr.reduce_matrix(atilde.submatrix(range(atilde.rows), kr._jrows))
    for v in g.vertices:
        if kr.reduce_class(m0.apply(kr.class_of(v))) != kr.class_of(g.sigma_vertex(v)):
            raise InternalInvariantError(f"induced K0 action disagrees at {v!r}")

    m1 = kr.k1.solve(p_col @ kr.k1.basis)
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
    classes = kr._uj.submatrix(range(kr._uj.rows), core)
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
    # one window at a time, keeping only what the comparison reads
    summaries = []
    for d in depths:
        kr = compute_k(g, d)
        summaries.append((kr.invariants, kr.k1_rank, core_class_relations(kr)))
    invariants, k1_ranks, relations = zip(*summaries)
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
    for i in range(len(spec.bvecs)):
        for (s, sign, part) in spec.sign_parts(i):
            weights[s] = tuple(sign * x for x in pmat.apply(part))
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
    # the map K0 -> G on the retained SNF coordinates: columns J of U^-1
    phi = weights @ kr.u_inv.submatrix(range(kr.u_inv.rows), kr._jrows)

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
        mapped = kr._uj @ kr.boundary.matrix  # the K0 coordinates of each relation column
        bad = [
            j
            for k, d in enumerate(kr.coord_orders)
            for j, x in mapped.nonzeros(k)
            if (x % d if d else x)
        ]
        if bad:
            return False, f"relation column {kr.boundary.col_index[min(bad)]} has nonzero class"
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
