import dataclasses
import re

import pytest

from cyclat.errors import PreconditionError
from cyclat.graphkit import (
    INWARD,
    OUTWARD,
    GadgetGraph,
    RayFamily,
    build_group_graph,
    build_strand_graph,
    delete_strand,
    is_irreducible,
    strand_window_size,
    to_dot,
    validate_automorphism,
)
from cyclat.intlinalg import IntMatrix, Lattice
from cyclat.ktheory import _generator_weights
from groupspecs import (
    ALL_SPECS,
    data_group_specs,
    z2_degenerate,
    z3sq_swap,
    z5_mult4,
    z7_mult2,
    zsq_swap,
)


def loop_vertex():
    return GadgetGraph(
        vertices=("w",),
        emitter=None,
        edges=(("w", "w", 1),),
        rays=(),
        aut_vertices=(("w", "w"),),
        aut_rays=(),
    )


def with_sink(g):
    return dataclasses.replace(
        g,
        vertices=g.vertices + ("sink",),
        aut_vertices=g.aut_vertices + (("sink", "sink"),),
    )


# -- ray families ------------------------------------------------------------


def test_ray_vertex_names():
    f = RayFamily("s0", "v", INWARD)
    assert f.vertex(1) == "s0[1]"
    assert f.vertex(7) == "s0[7]"


def test_ray_rejects_bracket_name():
    with pytest.raises(PreconditionError):
        RayFamily("s[0]", "v", INWARD)


def test_ray_rejects_bad_orientation():
    with pytest.raises(PreconditionError):
        RayFamily("s0", "v", "sideways")


# -- strand graphs -----------------------------------------------------------


def test_strand_graph_needs_a_strand():
    with pytest.raises(PreconditionError):
        build_strand_graph(0)


def test_single_strand_is_loop_terminated():
    g = build_strand_graph(1)
    assert g.emitter is None
    assert g.vertices == ("u",)
    assert g.edge_mult("u", "u") == 1
    assert len(g.rays) == 1 and g.rays[0].orientation == INWARD
    assert not g.rays[0].to_emitter


def test_single_strand_window_has_one_plus_depth_vertices():
    g = build_strand_graph(1)
    assert len(g.window_vertices(2)) == 3
    assert g.window_vertices(2) == ("u", "s0[1]", "s0[2]")


def test_multi_strand_core():
    g = build_strand_graph(4)
    assert g.emitter == "v"
    assert g.vertices == ("v",)
    assert [f.name for f in g.rays] == ["s0", "s1", "s2", "s3"]
    assert all(f.orientation == INWARD and f.base == "v" for f in g.rays)


def test_strand_depth_one_feeds_one_edge_back():
    # the predecessor edge of depth 1 is the emitter edge; no doubling
    g = build_strand_graph(3)
    assert g.ray_targets(g.rays[0], 1) == [("s0[1]", 1), ("v", 1)]
    assert g.ray_targets(g.rays[0], 2) == [("s0[2]", 1), ("s0[1]", 1), ("v", 1)]


def test_emitter_reaches_every_window_vertex():
    g = build_strand_graph(3)
    targets = {(t, m) for (s, t, m) in g.window_edges(2) if s == "v"}
    assert targets == {(w, 1) for w in g.window_vertices(2) if w != "v"}


def test_cyclic_automorphism_fixes_strand_zero():
    g = build_strand_graph(4, cyclic=True)
    assert g.sigma_ray("s0") == "s0"
    assert g.sigma_ray("s1") == "s2"
    assert g.sigma_ray("s2") == "s3"
    assert g.sigma_ray("s3") == "s1"
    assert validate_automorphism(g).order == 3


def test_plain_strand_automorphism_is_identity():
    g = build_strand_graph(4)
    assert validate_automorphism(g).order == 1


# -- strand deletion ---------------------------------------------------------


def test_delete_fixed_strand():
    g = build_strand_graph(4, cyclic=True)
    h = delete_strand(g, 0)
    assert [f.name for f in h.rays] == ["s1", "s2", "s3"]
    report = validate_automorphism(h)
    assert report.order == 3
    assert report.ray_cycles == (("s1", "s2", "s3"),)


def test_deleted_graph_matches_fresh_strand_graph():
    # deleting the fixed strand from m = p+1 leaves the m = p graph with a
    # freely cyclic automorphism, up to strand renaming
    p = 3
    h = delete_strand(build_strand_graph(p + 1, cyclic=True), 0)
    fresh = build_strand_graph(p)
    assert h.vertices == fresh.vertices and h.emitter == fresh.emitter
    assert len(h.rays) == p
    assert all(f.same_pattern(fresh.rays[0]) for f in h.rays)
    assert len(validate_automorphism(h).ray_cycles[0]) == p


def test_delete_twice():
    g = build_strand_graph(4)
    h = delete_strand(delete_strand(g, 0), 1)
    assert [f.name for f in h.rays] == ["s2", "s3"]


def test_delete_moved_strand_refused():
    g = build_strand_graph(4, cyclic=True)
    with pytest.raises(PreconditionError):
        delete_strand(g, 1)


def test_delete_missing_strand_refused():
    with pytest.raises(PreconditionError):
        delete_strand(build_strand_graph(2), 5)


# -- automorphism validation -------------------------------------------------


def test_automorphism_must_fix_emitter():
    g = GadgetGraph(
        vertices=("v", "w"),
        emitter="v",
        edges=(("w", "v", 1),),
        rays=(),
        aut_vertices=(("v", "w"), ("w", "v")),
        aut_rays=(),
    )
    with pytest.raises(PreconditionError):
        validate_automorphism(g)


def test_automorphism_must_preserve_multiplicity():
    g = GadgetGraph(
        vertices=("a", "b"),
        emitter=None,
        edges=(("a", "a", 2), ("b", "b", 3), ("a", "b", 1), ("b", "a", 1)),
        rays=(),
        aut_vertices=(("a", "b"), ("b", "a")),
        aut_rays=(),
    )
    with pytest.raises(PreconditionError):
        validate_automorphism(g)


def test_automorphism_must_respect_ray_bases():
    g = GadgetGraph(
        vertices=("a", "b"),
        emitter=None,
        edges=(("a", "b", 1), ("b", "a", 1)),
        rays=(RayFamily("r0", "a", INWARD), RayFamily("r1", "a", INWARD)),
        aut_vertices=(("a", "b"), ("b", "a")),
        aut_rays=(("r0", "r1"), ("r1", "r0")),
    )
    # both rays sit at a, but sigma sends a to b
    with pytest.raises(PreconditionError):
        validate_automorphism(g)


def test_automorphism_must_preserve_ray_pattern():
    g = GadgetGraph(
        vertices=("a",),
        emitter=None,
        edges=(("a", "a", 1),),
        rays=(RayFamily("r0", "a", INWARD), RayFamily("r1", "a", OUTWARD)),
        aut_vertices=(("a", "a"),),
        aut_rays=(("r0", "r1"), ("r1", "r0")),
    )
    with pytest.raises(PreconditionError):
        validate_automorphism(g)


def test_report_lists_cycles():
    g = build_strand_graph(3, cyclic=True)
    report = validate_automorphism(g)
    assert report.vertex_cycles == (("v",),)
    assert report.ray_cycles == (("s0",), ("s1", "s2"))
    assert report.order == 2


# -- irreducibility ----------------------------------------------------------


def test_loop_vertex_is_irreducible():
    assert is_irreducible(loop_vertex())


def test_strand_graphs_with_emitter_are_irreducible():
    assert is_irreducible(build_strand_graph(2))
    assert is_irreducible(build_strand_graph(5))


def test_single_strand_model_is_not_irreducible():
    # the loop vertex never reaches the chain hanging above it
    assert not is_irreducible(build_strand_graph(1))


def test_sink_breaks_irreducibility():
    assert not is_irreducible(with_sink(build_strand_graph(3)))


def test_group_graphs_are_irreducible():
    for make in ALL_SPECS:
        assert is_irreducible(build_group_graph(make()))


# -- dot export --------------------------------------------------------------


def test_dot_needs_positive_depth():
    with pytest.raises(PreconditionError):
        to_dot(build_strand_graph(2), 0)


def test_dot_is_deterministic():
    g = build_group_graph(z5_mult4())
    assert to_dot(g, 2) == to_dot(g, 2)


def test_dot_counts_for_single_strand():
    text = to_dot(build_strand_graph(1), 2)
    node_lines = [l for l in text.splitlines() if l.startswith('  "') and "->" not in l]
    assert len(node_lines) == 3


def test_dot_marks_emitter_and_ray_vertices():
    text = to_dot(build_strand_graph(2), 1)
    assert '  "v" [peripheries=2];' in text
    assert '  "s0[1]" [style=dashed];' in text
    assert text.endswith("}\n")


def test_dot_edge_multiplicity_labels():
    g = build_group_graph(z5_mult4())
    assert '[label="2"]' in to_dot(g, 1)


# -- group graph construction ------------------------------------------------


def test_degenerate_z2_accepted_with_order_one():
    g = build_group_graph(z2_degenerate())
    assert validate_automorphism(g).order == 1
    assert g.emitter == "v"
    # b = (2,) is all-positive: the minus vertex is absent
    assert "z0+" in g.vertices
    assert "z0-" not in g.vertices


def test_z2_gadget_edges():
    g = build_group_graph(z2_degenerate())
    assert g.edge_mult("a0", "a0") == 1
    assert g.edge_mult("a0", "v") == 1
    assert g.edge_mult("z0", "z0+") == 1
    assert g.edge_mult("z0", "v") == 1
    assert g.edge_mult("z0+", "a0") == 2
    assert g.edge_mult("z0+", "v") == 1
    names = {f.name: f for f in g.rays}
    assert names["x(a0)"].orientation == OUTWARD and names["x(a0)"].base == "a0"
    assert names["y0"].orientation == INWARD and names["y0"].base == "z0"
    assert names["c"].orientation == INWARD and names["c"].base == "v"


def test_z5_construction_audit():
    spec = z5_mult4()
    g = build_group_graph(spec)
    # 5 generators + 5 heads + sign vertices + v
    heads = [v for v in g.vertices if v.startswith("z") and not v.endswith(("+", "-"))]
    assert len(heads) == 5
    assert validate_automorphism(g).order == 2
    assert g.sigma_vertex("g1") == "g4" and g.sigma_vertex("g4") == "g1"
    assert g.sigma_vertex("v") == "v"
    assert g.sigma_ray("c") == "c"


def test_z5_sign_vertices_follow_nonzero_parts():
    g = build_group_graph(z5_mult4())
    # b0 = (1,-1,-1,0,0) has both signs; b1 = (0,1,0,2,0) only positive
    assert "z0+" in g.vertices and "z0-" in g.vertices
    assert "z1+" in g.vertices and "z1-" not in g.vertices
    assert g.edge_mult("z0-", "z0-") == 2
    assert g.edge_mult("z0-", "g1") == 1
    assert g.edge_mult("z0-", "g4") == 1
    assert g.edge_mult("z0+", "g0") == 1
    assert g.edge_mult("z1+", "g2") == 2


def test_sign_multiplicities_are_equivariant():
    # (gamma b)^+ at sigma(a) equals b^+ at a, and same for minus parts
    for make in (z5_mult4, z7_mult2, z3sq_swap):
        spec = make()
        g = build_group_graph(spec)
        labels = spec.labels
        for i, b in enumerate(spec.bvecs):
            zi = f"z{i}"
            zj = g.sigma_vertex(zi)
            for sign in "+-":
                src, dst = zi + sign, zj + sign
                if src not in g.vertices:
                    continue
                for a in labels:
                    assert g.edge_mult(src, a) == g.edge_mult(dst, g.sigma_vertex(a))


GROUP_SPECS = [(make.__name__, make()) for make in ALL_SPECS] + list(data_group_specs())


@pytest.mark.parametrize("spec", [s for _, s in GROUP_SPECS], ids=[n for n, _ in GROUP_SPECS])
def test_relation_layout_oracle(spec):
    # relation_perm against a scan of bvecs, and the sign vertices' weights
    # against the multiplicities the built graph carries into the generators
    bvecs = spec.bvecs
    perm = spec.relation_perm
    assert perm == tuple(bvecs.index(spec.gamma_vec(b)) for b in bvecs)
    assert sorted(perm) == list(range(len(bvecs)))
    g = build_group_graph(spec)
    labels = spec.labels
    sign_vertices = [v for v in g.vertices if v.endswith(("+", "-"))]
    assert sign_vertices == [s for i in range(len(bvecs)) for (s, _, _) in spec.sign_parts(i)]
    weights = _generator_weights(sign_vertices, spec)
    for j, s in enumerate(sign_vertices):
        sign = 1 if s.endswith("+") else -1
        want = [0] * spec.group_rank
        for a in labels:
            for r, x in enumerate(spec.pi0_of(a)):
                want[r] += sign * g.edge_mult(s, a) * x
        assert weights.col(j) == tuple(want), s
    for i, b in enumerate(bvecs):
        # the sign vertices of relation i carry b back, part by part
        own = [s for s in sign_vertices if s[:-1] == f"z{i}"]
        signed = [sum((1 if s.endswith("+") else -1) * g.edge_mult(s, a) for s in own) for a in labels]
        assert tuple(signed) == b


def test_validate_refuses_a_relation_set_the_action_does_not_keep():
    spec = z5_mult4()
    b = spec.bvecs
    # b0 + b1 is still in the kernel and independent of the rest, but its
    # image under the action is not a relation vector
    moved = dataclasses.replace(spec, bvecs=(tuple(x + y for x, y in zip(b[0], b[1])),) + b[1:])
    assert moved.relation_perm[0] == -1
    with pytest.raises(PreconditionError, match="^relation set is not invariant under the action$"):
        moved.validate()


def test_equivariant_injection_of_generators():
    for make in ALL_SPECS:
        spec = make()
        g = build_group_graph(spec)
        labels = spec.labels
        assert len(set(labels)) == len(labels)
        for a in labels:
            assert a in g.vertices
            assert g.sigma_vertex(a) == spec.sigma_label(a)


def test_unique_emitter_and_no_sinks():
    for make in ALL_SPECS:
        g = build_group_graph(make())
        assert g.emitter == "v"
        for v in g.vertices:
            if v != "v":
                assert g.core_targets(v), f"{v} is a sink"


def test_automorphism_power_p_is_identity():
    for make in ALL_SPECS:
        spec = make()
        order = validate_automorphism(build_group_graph(spec)).order
        assert spec.p % order == 0


def test_z7_orbit_structure():
    g = build_group_graph(z7_mult2())
    report = validate_automorphism(g)
    assert report.order == 3
    assert ("g1", "g2", "g4") in report.vertex_cycles


def test_free_group_graph_has_no_relation_gadgets():
    g = build_group_graph(zsq_swap())
    assert g.vertices == ("a1", "a2", "v")
    assert {f.name for f in g.rays} == {"x(a1)", "x(a2)", "c"}
    assert validate_automorphism(g).order == 2


# -- input validation --------------------------------------------------------


def test_spec_rejects_composite_p():
    spec = dataclasses.replace(z2_degenerate(), p=4)
    with pytest.raises(PreconditionError):
        spec.validate()


def test_spec_rejects_dependent_relations():
    spec = dataclasses.replace(z2_degenerate(), bvecs=((2,), (-2,)))
    with pytest.raises(PreconditionError):
        spec.validate()


def test_spec_rejects_vector_outside_kernel():
    spec = dataclasses.replace(z2_degenerate(), bvecs=((1,),))
    with pytest.raises(PreconditionError):
        spec.validate()


def test_spec_rejects_incomplete_span():
    spec = dataclasses.replace(z2_degenerate(), bvecs=((4,),))
    with pytest.raises(PreconditionError):
        spec.validate()


def test_spec_rejects_noninvariant_relation_set():
    base = z3sq_swap()
    spec = dataclasses.replace(
        base,
        group_rel=Lattice.spanned_by([(3, 0), (0, 1)], 2),
        bvecs=((3, 0), (0, 1)),
    )
    with pytest.raises(PreconditionError):
        spec.validate()


def test_spec_rejects_nonequivariant_pi0():
    spec = dataclasses.replace(z3sq_swap(), pi0=(("a1", (1, 0)), ("a2", (1, 1))))
    with pytest.raises(PreconditionError):
        spec.validate()


def test_spec_rejects_wrong_orbit_size():
    spec = dataclasses.replace(
        z7_mult2(),
        orbits=(("g0",), ("g1", "g2"), ("g4",), ("g3", "g6", "g5")),
    )
    with pytest.raises(PreconditionError):
        spec.validate()


def test_spec_rejects_action_of_wrong_order():
    spec = dataclasses.replace(z5_mult4(), group_aut=IntMatrix([[2]]))
    with pytest.raises(PreconditionError):
        spec.validate()


def test_spec_rejects_reserved_names():
    spec = dataclasses.replace(
        z2_degenerate(),
        orbits=(("z9",),),
        pi0=(("z9", (1,)),),
    )
    with pytest.raises(PreconditionError):
        spec.validate()


def test_all_benchmark_specs_validate():
    for make in ALL_SPECS:
        make().validate()


class TestWindowSize:
    def test_counts_the_window_without_listing_it(self):
        graphs = [build_strand_graph(m, cyclic) for m in (1, 2, 5) for cyclic in (False, True)]
        graphs += [build_group_graph(spec()) for spec in ALL_SPECS]
        for g in graphs:
            for depth in (1, 2, 7):
                assert g.window_size(depth) == len(g.window_vertices(depth))

    def test_strand_size_is_known_before_building(self):
        for m in (1, 2, 3, 16):
            for depth in (1, 2, 12):
                assert strand_window_size(m, depth) == build_strand_graph(m).window_size(depth)
        assert strand_window_size(10**9, 2) == 2 * 10**9 + 1

    def test_depth_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            build_strand_graph(2).window_size(0)


class TestLookups:
    """Each look-up goes through a dict and keeps the scan's answers and errors."""

    def test_graph_lookups_match_a_scan(self):
        g = build_group_graph(z5_mult4())
        for f in g.rays:
            assert g.ray(f.name) is f
        for a, b in g.aut_vertices:
            assert g.sigma_vertex(a) == b
        for a, b in g.aut_rays:
            assert g.sigma_ray(a) == b
        for s, t, m in g.edges:
            assert g.edge_mult(s, t) == m
        for v in g.vertices:
            if v != g.emitter:
                want = [(t, m) for s, t, m in g.edges if s == v]
                want += [(f.vertex(1), 1) for f in g.rays if f.orientation == OUTWARD and f.base == v]
                assert g.core_targets(v) == want

    @pytest.mark.parametrize(
        "lookup, message",
        [
            (lambda g: g.ray("nope"), "no ray named 'nope'"),
            (lambda g: g.sigma_vertex("nope"), "vertex 'nope' missing from the automorphism"),
            (lambda g: g.sigma_ray("nope"), "ray 'nope' missing from the automorphism"),
            (lambda g: g.sigma_window("nope[2]"), "ray 'nope' missing from the automorphism"),
        ],
        ids=["ray", "sigma_vertex", "sigma_ray", "sigma_window"],
    )
    def test_unknown_graph_names_raise_as_before(self, lookup, message):
        g = build_strand_graph(4, cyclic=True)
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            lookup(g)

    def test_an_absent_edge_has_multiplicity_zero(self):
        g = build_strand_graph(4, cyclic=True)
        assert g.edge_mult("v", "nope") == 0
        assert g.edge_mult("v", "v") == 0

    def test_spec_lookups_match_a_scan(self):
        spec = z7_mult2()
        for a, val in spec.pi0:
            assert spec.pi0_of(a) == val
        for orbit in spec.orbits:
            for i, a in enumerate(orbit):
                assert spec.sigma_label(a) == orbit[(i + 1) % len(orbit)]

    @pytest.mark.parametrize(
        "lookup, message",
        [
            (lambda s: s.pi0_of("nope"), "no pi0 value for 'nope'"),
            (lambda s: s.sigma_label("nope"), "unknown generator 'nope'"),
        ],
        ids=["pi0_of", "sigma_label"],
    )
    def test_unknown_spec_labels_raise_as_before(self, lookup, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            lookup(z5_mult4())
