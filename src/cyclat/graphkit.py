"""Directed gadget graphs: a finite core plus symbolic infinite rays.

A ray is an infinite chain of vertices hanging off a base vertex.  Rays are
never materialized; operations take a window depth L and instantiate the
chain vertices ray[1..L] on demand.  Two orientations occur:

* inward: each chain vertex emits toward the base (depth j sends its step
  edges to depth j-1, depth 1 to the base itself), so in K-theory the chain
  successively kills the class of the vertex below it.
* outward: the base emits one edge into the chain and chain vertices emit
  away from it (depth j to depth j+1), so the chain kills its own classes
  and leaves the base class alone.

Every chain vertex additionally carries `loops` loop edges and, when
to_emitter is set on a graph with an infinite emitter, one edge to that
emitter.  The emitter itself emits one edge to every other vertex and is
the only vertex allowed to emit infinitely.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from .errors import PreconditionError
from .intlinalg import IntMatrix, Lattice, column_rank
from .zmod import FinMod, cycles

INWARD = "inward"
OUTWARD = "outward"

# Window vertex names are formed as "family[depth]", so bare vertex and ray
# family names must keep the bracket characters to themselves.
_BAD_NAME_CHARS = "[]"


def _check_name(name: str, what: str) -> None:
    if not name or any(ch in name for ch in _BAD_NAME_CHARS):
        raise PreconditionError(f"invalid {what} name: {name!r}")


@dataclass(frozen=True)
class RayFamily:
    """One symbolic chain: base vertex, direction and per-vertex edge kit."""

    name: str
    base: str
    orientation: str
    loops: int = 1
    step_edges: int = 1
    to_emitter: bool = True

    def __post_init__(self):
        _check_name(self.name, "ray")
        if self.orientation not in (INWARD, OUTWARD):
            raise PreconditionError(f"unknown orientation: {self.orientation!r}")
        if self.loops < 0 or self.step_edges < 1:
            raise PreconditionError("ray needs loops >= 0 and step_edges >= 1")

    def vertex(self, depth: int) -> str:
        return f"{self.name}[{depth}]"

    def same_pattern(self, other: "RayFamily") -> bool:
        return (
            self.orientation == other.orientation
            and self.loops == other.loops
            and self.step_edges == other.step_edges
            and self.to_emitter == other.to_emitter
        )


def _is_permutation(sigma: dict[str, str], pairs: int, items) -> bool:
    """Whether the dict made from `pairs` pairs maps the set `items` onto itself, one to one."""
    return (
        pairs == len(sigma) == len(items)
        and sigma.keys() == items
        and set(sigma.values()) == items
    )


@dataclass(frozen=True)
class GadgetGraph:
    """Immutable graph value; builders are pure, nothing mutates in place.

    vertices lists the core in a fixed order; edges holds core-to-core
    multiplicities; aut_vertices / aut_rays give the automorphism as pair
    tuples (checked for meaning by validate_automorphism, only for shape
    here).  The emitter's edge to every other vertex is implicit.
    """

    vertices: tuple[str, ...]
    emitter: Optional[str]
    edges: tuple[tuple[str, str, int], ...]
    rays: tuple[RayFamily, ...]
    aut_vertices: tuple[tuple[str, str], ...]
    aut_rays: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for v in self.vertices:
            _check_name(v, "vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise PreconditionError("duplicate core vertex names")
        vs = set(self.vertices)
        if self.emitter is not None and self.emitter not in vs:
            raise PreconditionError("emitter is not a core vertex")
        mult_of: dict[tuple[str, str], int] = {}
        out_edges: dict[str, list[tuple[str, int]]] = {}
        for (src, dst, mult) in self.edges:
            if src not in vs or dst not in vs:
                raise PreconditionError(f"edge endpoint outside the core: {src}->{dst}")
            if src == self.emitter:
                raise PreconditionError("the emitter's edges are implicit")
            if mult <= 0 or (src, dst) in mult_of:
                raise PreconditionError(f"bad edge record {src}->{dst}")
            mult_of[(src, dst)] = mult
            out_edges.setdefault(src, []).append((dst, mult))
        ray_of = {f.name: f for f in self.rays}
        if len(ray_of) != len(self.rays):
            raise PreconditionError("duplicate ray names")
        for f in self.rays:
            if f.base not in vs:
                raise PreconditionError(f"ray {f.name} based outside the core")
        sigma_vertex_of, sigma_ray_of = dict(self.aut_vertices), dict(self.aut_rays)
        if not _is_permutation(sigma_vertex_of, len(self.aut_vertices), vs):
            raise PreconditionError("vertex map is not a permutation of the core")
        if not _is_permutation(sigma_ray_of, len(self.aut_rays), ray_of.keys()):
            raise PreconditionError("ray map is not a permutation of the rays")
        # the look-ups below read these dicts; the checks above make their
        # keys unique, so each gives what a scan for the first match would
        for name, lookup in (
            ("_mult_of", mult_of),
            ("_out_edges", out_edges),
            ("_ray_of", ray_of),
            ("_sigma_vertex_of", sigma_vertex_of),
            ("_sigma_ray_of", sigma_ray_of),
        ):
            object.__setattr__(self, name, lookup)

    # -- lookups --------------------------------------------------------

    def ray(self, name: str) -> RayFamily:
        f = self._ray_of.get(name)
        if f is None:
            raise PreconditionError(f"no ray named {name!r}")
        return f

    def edge_mult(self, src: str, dst: str) -> int:
        return self._mult_of.get((src, dst), 0)

    def sigma_vertex(self, v: str) -> str:
        b = self._sigma_vertex_of.get(v)
        if b is None:
            raise PreconditionError(f"vertex {v!r} missing from the automorphism")
        return b

    def sigma_ray(self, name: str) -> str:
        b = self._sigma_ray_of.get(name)
        if b is None:
            raise PreconditionError(f"ray {name!r} missing from the automorphism")
        return b

    def sigma_window(self, name: str) -> str:
        """Automorphism on window vertex names, rays mapped depth to depth."""
        if "[" not in name:
            return self.sigma_vertex(name)
        fam, rest = name.split("[", 1)
        return self.sigma_ray(fam) + "[" + rest

    # -- window instantiation -------------------------------------------

    def window_vertices(self, depth: int) -> tuple[str, ...]:
        if depth < 1:
            raise PreconditionError("window depth must be >= 1")
        out = list(self.vertices)
        for f in self.rays:
            out.extend(f.vertex(j) for j in range(1, depth + 1))
        return tuple(out)

    def window_size(self, depth: int) -> int:
        """len(window_vertices(depth)), computed without listing them."""
        if depth < 1:
            raise PreconditionError("window depth must be >= 1")
        return len(self.vertices) + len(self.rays) * depth

    def core_targets(self, v: str) -> list[tuple[str, int]]:
        """Finite out-edges of a core vertex, ray heads included."""
        if v == self.emitter:
            raise PreconditionError("the emitter has no finite edge list")
        out = list(self._out_edges.get(v, ()))
        out.extend((f.vertex(1), 1) for f in self.rays if f.orientation == OUTWARD and f.base == v)
        return out

    def ray_targets(self, f: RayFamily, depth: int) -> list[tuple[str, int]]:
        """Out-edges of chain vertex f[depth]; names may lie outside a window."""
        here = f.vertex(depth)
        out = []
        if f.loops:
            out.append((here, f.loops))
        if f.orientation == INWARD:
            step_to = f.base if depth == 1 else f.vertex(depth - 1)
        else:
            step_to = f.vertex(depth + 1)
        out.append((step_to, f.step_edges))
        # Depth-1 inward chains at the emitter fold the emitter edge into
        # the step edge instead of doubling it.
        if f.to_emitter and self.emitter is not None and step_to != self.emitter:
            out.append((self.emitter, 1))
        return out

    def window_edges(self, depth: int) -> list[tuple[str, str, int]]:
        """All edges among window vertices, implicit emitter fan-out included."""
        window = self.window_vertices(depth)
        inside = set(window)
        out = []
        for v in self.vertices:
            if v == self.emitter:
                out.extend((v, other, 1) for other in window if other != v)
            else:
                out.extend((v, t, m) for (t, m) in self.core_targets(v) if t in inside)
        for f in self.rays:
            for j in range(1, depth + 1):
                src = f.vertex(j)
                for (t, m) in self.ray_targets(f, j):
                    if t in inside:
                        out.append((src, t, m))
        return out


@dataclass(frozen=True)
class AutomorphismReport:
    order: int
    vertex_cycles: tuple[tuple[str, ...], ...]
    ray_cycles: tuple[tuple[str, ...], ...]


def validate_automorphism(g: GadgetGraph) -> AutomorphismReport:
    """Check the stored maps really are a graph automorphism, return its order.

    Kind (emitter vs regular), edge multiplicities and ray gadgets must all
    be preserved; any violation is reported with the offending item.
    """
    sig = dict(g.aut_vertices)
    if g.emitter is not None and sig[g.emitter] != g.emitter:
        raise PreconditionError("automorphism moves the infinite emitter")
    for (s, t, m) in g.edges:
        if g.edge_mult(sig[s], sig[t]) != m:
            raise PreconditionError(f"edge multiplicity not preserved at {s}->{t}")
    rig = dict(g.aut_rays)
    for f in g.rays:
        img = g.ray(rig[f.name])
        if img.base != sig[f.base]:
            raise PreconditionError(f"ray {f.name} maps to a ray on the wrong base")
        if not f.same_pattern(img):
            raise PreconditionError(f"ray {f.name} maps to a ray with a different gadget")
    vcyc = cycles(sig, g.vertices)
    rcyc = cycles(rig, [f.name for f in g.rays])
    order = 1
    for cyc in vcyc + rcyc:
        order = lcm(order, len(cyc))
    return AutomorphismReport(order, tuple(vcyc), tuple(rcyc))


def is_irreducible(g: GadgetGraph) -> bool:
    """Strong connectivity of the depth-2 window, which decides every depth.

    Chains repeat the same local pattern at each depth, so a depth-2 window
    already contains every reachability feature a deeper one would add.
    """
    nodes = g.window_vertices(2)
    if not nodes:
        return True
    pos = {v: i for i, v in enumerate(nodes)}
    fwd = [[] for _ in nodes]
    back = [[] for _ in nodes]
    for (s, t, _) in g.window_edges(2):
        fwd[pos[s]].append(pos[t])
        back[pos[t]].append(pos[s])
    for adj in (fwd, back):
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(nodes):
            return False
    return True


def to_dot(g: GadgetGraph, depth: int) -> str:
    """Deterministic dot text for the depth-L instantiation."""
    if depth < 1:
        raise PreconditionError("dot export needs depth >= 1")
    window = g.window_vertices(depth)
    lines = ["digraph gadget {"]
    for v in window:
        if v == g.emitter:
            lines.append(f'  "{v}" [peripheries=2];')
        elif "[" in v:
            lines.append(f'  "{v}" [style=dashed];')
        else:
            lines.append(f'  "{v}";')
    for (s, t, m) in g.window_edges(depth):
        tag = "" if m == 1 else f' [label="{m}"]'
        lines.append(f'  "{s}" -> "{t}"{tag};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- strand graphs -----------------------------------------------------------


def build_strand_graph(m: int, cyclic: bool = False) -> GadgetGraph:
    """Central emitter with m inward chains, each feeding one edge back.

    m = 1 is served by the loop-terminated chain model: a single chain whose
    base carries only a loop and no emitter.  The literal one-strand graph
    has trivial K-theory, while this model realizes the intended (0, Z); the
    depth-L window still shows the same 1 + L vertices.

    cyclic=True installs the automorphism fixing strand 0 and cycling the
    others, the largest strand permutation of prime-power order available.
    """
    if m < 1:
        raise PreconditionError("a strand graph needs at least one strand")
    if m == 1:
        return GadgetGraph(
            vertices=("u",),
            emitter=None,
            edges=(("u", "u", 1),),
            rays=(RayFamily("s0", "u", INWARD, to_emitter=False),),
            aut_vertices=(("u", "u"),),
            aut_rays=(("s0", "s0"),),
        )
    names = [f"s{i}" for i in range(m)]
    if cyclic and m > 2:
        ray_map = [("s0", "s0")]
        ray_map += [(names[i], names[i % (m - 1) + 1]) for i in range(1, m)]
    else:
        ray_map = [(n, n) for n in names]
    return GadgetGraph(
        vertices=("v",),
        emitter="v",
        edges=(),
        rays=tuple(RayFamily(n, "v", INWARD) for n in names),
        aut_vertices=(("v", "v"),),
        aut_rays=tuple(ray_map),
    )


def strand_window_size(m: int, depth: int) -> int:
    """window_size(depth) of build_strand_graph(m), known before building it:
    one core vertex and m rays."""
    return 1 + m * depth


def delete_strand(g: GadgetGraph, idx: int) -> GadgetGraph:
    """Remove strand idx; only allowed when the automorphism fixes it."""
    name = f"s{idx}"
    if all(f.name != name for f in g.rays):
        raise PreconditionError(f"no strand {idx} to delete")
    if g.sigma_ray(name) != name:
        raise PreconditionError(f"strand {idx} is moved by the automorphism")
    return replace(
        g,
        rays=tuple(f for f in g.rays if f.name != name),
        aut_rays=tuple((a, b) for (a, b) in g.aut_rays if a != name),
    )


# -- graphs presenting a group with automorphism -----------------------------


@dataclass(frozen=True)
class GroupGraphSpec:
    """Input data for build_group_graph.

    The target group is Z^group_rank modulo group_rel with automorphism
    group_aut of order dividing p.  orbits lists the generator set A as
    cycles of the induced permutation, pi0 assigns each generator its group
    value in ambient coordinates, and bvecs lists the chosen relation
    vectors B over the flattened generator order.
    """

    p: int
    group_rank: int
    group_rel: Lattice
    group_aut: IntMatrix
    orbits: tuple[tuple[str, ...], ...]
    pi0: tuple[tuple[str, tuple[int, ...]], ...]
    bvecs: tuple[tuple[int, ...], ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(a for orbit in self.orbits for a in orbit)

    @cached_property
    def _pi0_of(self) -> dict[str, tuple[int, ...]]:
        out: dict[str, tuple[int, ...]] = {}
        for (a, val) in self.pi0:
            out.setdefault(a, val)  # the first value, before validate refuses a repeat
        return out

    @cached_property
    def _next_label(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for orbit in self.orbits:
            for i, a in enumerate(orbit):
                out.setdefault(a, orbit[(i + 1) % len(orbit)])
        return out

    def pi0_of(self, label: str) -> tuple[int, ...]:
        val = self._pi0_of.get(label)
        if val is None:
            raise PreconditionError(f"no pi0 value for {label!r}")
        return val

    def sigma_label(self, label: str) -> str:
        b = self._next_label.get(label)
        if b is None:
            raise PreconditionError(f"unknown generator {label!r}")
        return b

    def gamma_vec(self, b: Sequence[int]) -> tuple[int, ...]:
        """Push a vector over A forward along the generator permutation."""
        labels = self.labels
        pos = {a: i for i, a in enumerate(labels)}
        out = [0] * len(labels)
        for i, a in enumerate(labels):
            out[pos[self.sigma_label(a)]] = b[i]
        return tuple(out)

    @cached_property
    def relation_perm(self) -> tuple[int, ...]:
        """Position of gamma(b_i) in bvecs for each relation vector b_i, -1 where it is missing."""
        pos = {b: i for i, b in enumerate(self.bvecs)}
        return tuple(pos.get(self.gamma_vec(b), -1) for b in self.bvecs)

    def sign_parts(self, i: int) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
        """(vertex, sign, part) per nonzero part of b_i, parts nonnegative: b_i = sum of sign * part."""
        signs = ((f"z{i}+", 1), (f"z{i}-", -1))
        parts = [(name, sign, tuple(max(sign * x, 0) for x in self.bvecs[i])) for name, sign in signs]
        return tuple(sp for sp in parts if any(sp[2]))

    def pi_matrix(self) -> IntMatrix:
        return IntMatrix.from_cols([self.pi0_of(a) for a in self.labels], rows=self.group_rank)

    def b_lattice(self) -> Lattice:
        return Lattice.spanned_by(self.bvecs, len(self.labels))

    def validate(self) -> FinMod:
        """Check the description (once per spec) and return the group as a module."""
        return self._group

    @cached_property
    def _group(self) -> FinMod:
        group = FinMod(self.p, self.group_rank, self.group_rel, self.group_aut)
        labels = self.labels
        if not labels or len(set(labels)) != len(labels):
            raise PreconditionError("generator labels must be nonempty and distinct")
        for orbit in self.orbits:
            if len(orbit) not in (1, self.p):
                raise PreconditionError("orbit sizes must be 1 or p")
        for a in labels:
            _check_name(a, "generator")
            if a == "v" or a.startswith("z"):
                raise PreconditionError(f"generator name {a!r} collides with a gadget name")
        if sorted(a for a, _ in self.pi0) != sorted(labels):
            raise PreconditionError("pi0 must assign exactly the generators")
        r = self.group_rank
        for a in labels:
            if len(self.pi0_of(a)) != r:
                raise PreconditionError(f"pi0 value for {a!r} has the wrong length")
        for a in labels:
            diff = [
                x - y
                for x, y in zip(self.pi0_of(self.sigma_label(a)), self.group_aut.apply(self.pi0_of(a)))
            ]
            if not self.group_rel.member(diff):
                raise PreconditionError(f"pi0 is not equivariant at {a!r}")
        pmat = self.pi_matrix()
        n = len(labels)
        for b in self.bvecs:
            if len(b) != n:
                raise PreconditionError("relation vector has the wrong length")
            if not self.group_rel.member(pmat.apply(b)):
                raise PreconditionError("relation vector is not in the kernel of pi")
        if column_rank(IntMatrix.from_cols(self.bvecs, rows=n)) != len(self.bvecs):
            raise PreconditionError("relation vectors are linearly dependent")
        if -1 in self.relation_perm:
            raise PreconditionError("relation set is not invariant under the action")
        if self.b_lattice() != self.group_rel.preimage(pmat):
            raise PreconditionError("relation vectors do not span the kernel of pi")
        if Lattice(r, IntMatrix.hstack(pmat, self.group_rel.basis)) != Lattice.full(r):
            raise PreconditionError("pi does not reach the whole group")
        return group


def build_group_graph(spec: GroupGraphSpec) -> GadgetGraph:
    """Assemble the gadget graph presenting spec's group in K-theory.

    Per generator a: a loop, an edge to the emitter and an outward chain.
    Per relation vector b: a head z emitting to one sign vertex per nonzero
    part of b (spec.sign_parts), each sign vertex emitting its part into
    the generators (the negative one also carries a double loop), and an
    inward chain at the head.  One inward chain at the emitter closes the
    construction, and the emitter reaches everything.  The automorphism
    sends relation i's gadget to relation spec.relation_perm[i]'s.
    """
    spec.validate()
    labels = spec.labels
    vertices = list(labels)
    aut_v = [(a, spec.sigma_label(a)) for a in labels]
    edges = []
    rays = []
    aut_r = []
    for a in labels:
        edges.append((a, a, 1))
        edges.append((a, "v", 1))
        rays.append(RayFamily(f"x({a})", a, OUTWARD))
        aut_r.append((f"x({a})", f"x({spec.sigma_label(a)})"))
    for i, j in enumerate(spec.relation_perm):
        head, parts = f"z{i}", spec.sign_parts(i)
        vertices.append(head)
        aut_v.append((head, f"z{j}"))
        edges += [(head, s, 1) for (s, _, _) in parts]
        edges.append((head, "v", 1))
        # gamma permutes b's entries, so the image relation has the same signs
        for (s, sign, part), (t, _, _) in zip(parts, spec.sign_parts(j)):
            vertices.append(s)
            aut_v.append((s, t))
            if sign < 0:
                edges.append((s, s, 2))
            edges += [(s, labels[k], x) for k, x in enumerate(part) if x]
            edges.append((s, "v", 1))
        rays.append(RayFamily(f"y{i}", head, INWARD))
        aut_r.append((f"y{i}", f"y{j}"))
    vertices.append("v")
    aut_v.append(("v", "v"))
    rays.append(RayFamily("c", "v", INWARD))
    aut_r.append(("c", "c"))

    return GadgetGraph(
        vertices=tuple(vertices),
        emitter="v",
        edges=tuple(edges),
        rays=tuple(rays),
        aut_vertices=tuple(aut_v),
        aut_rays=tuple(aut_r),
    )
