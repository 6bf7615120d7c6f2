import dataclasses

import pytest

import cyclat
from cyclat.errors import InternalInvariantError, PreconditionError
from cyclat.graphkit import (
    INWARD,
    GadgetGraph,
    RayFamily,
    build_group_graph,
    build_strand_graph,
    delete_strand,
)
from cyclat.intlinalg import IntMatrix, Lattice, charpoly, kernel_basis, quotient_invariants
from cyclat.ktheory import (
    GroupVerification,
    boundary_matrix,
    compute_k,
    core_class_relations,
    induced_action,
    stabilization_check,
    verify_group_graph,
)
from groupspecs import (
    ALL_SPECS,
    data_group_graphs,
    z2_degenerate,
    z3sq_swap,
    z5_mult4,
    z7_mult2,
    zsq_swap,
)
from polyhelp import poly_divides, x_pow_minus_one


def misclosed_fixture():
    """A ray whose doubled step edges leak depth into K0: must be unstable."""
    return GadgetGraph(
        vertices=("w",),
        emitter=None,
        edges=(("w", "w", 1),),
        rays=(RayFamily("bad", "w", INWARD, loops=1, step_edges=2, to_emitter=False),),
        aut_vertices=(("w", "w"),),
        aut_rays=(("bad", "bad"),),
    )


def empty_graph():
    return GadgetGraph(
        vertices=(), emitter=None, edges=(), rays=(), aut_vertices=(), aut_rays=()
    )


def fixed_rank(m):
    return kernel_basis(m - IntMatrix.identity(m.rows)).rank


# -- boundary matrix ---------------------------------------------------------


def test_boundary_needs_positive_depth():
    with pytest.raises(PreconditionError):
        boundary_matrix(build_strand_graph(2), 0)


def test_empty_graph_gives_empty_matrix():
    b = boundary_matrix(empty_graph(), 3)
    assert b.row_index == () and b.col_index == ()
    assert b.matrix.rows == 0 and b.matrix.cols == 0


def test_single_strand_matrix_shape():
    b = boundary_matrix(build_strand_graph(1), 2)
    assert b.matrix.rows == 3 and b.matrix.cols == 4
    assert b.row_index == ("u", "s0[1]", "s0[2]")
    assert b.col_index == ("u", "s0[1]", "s0[2]", "s0[3]")


def test_single_strand_matrix_entries():
    b = boundary_matrix(build_strand_graph(1), 2)
    # loop-only core vertex nets to the zero column; chain columns shift down
    assert b.matrix.col(0) == (0, 0, 0)
    assert b.matrix.col(1) == (1, 0, 0)
    assert b.matrix.col(2) == (0, 1, 0)
    assert b.matrix.col(3) == (0, 0, 1)


def test_emitter_has_row_but_no_column():
    b = boundary_matrix(build_strand_graph(3), 2)
    assert "v" in b.row_index
    assert "v" not in b.col_index


def test_inward_rays_contribute_ghost_columns():
    b = boundary_matrix(build_strand_graph(3), 2)
    # depths 1..2 plus the depth-3 ghost for each of the three strands
    assert b.col_index == tuple(f"s{i}[{j}]" for i in range(3) for j in (1, 2, 3))


def test_outward_rays_lose_their_top_columns():
    g = build_group_graph(zsq_swap())
    b = boundary_matrix(g, 3)
    assert "x(a1)[1]" in b.col_index and "x(a1)[2]" in b.col_index
    assert "x(a1)[3]" not in b.col_index
    assert "x(a1)[4]" not in b.col_index


def test_z2_golden_matrix():
    # frozen by hand from the gadget recipe at depth 2
    b = boundary_matrix(build_group_graph(z2_degenerate()), 2)
    assert b.row_index == (
        "a0", "z0", "z0+", "v",
        "x(a0)[1]", "x(a0)[2]", "y0[1]", "y0[2]", "c[1]", "c[2]",
    )
    assert b.col_index == (
        "a0", "z0", "z0+",
        "x(a0)[1]", "y0[1]", "y0[2]", "y0[3]", "c[1]", "c[2]", "c[3]",
    )
    assert b.matrix.entries() == (
        (0, 0, 2, 0, 0, 0, 0, 0, 0, 0),
        (0, -1, 0, 0, 1, 0, 0, 0, 0, 0),
        (0, 1, -1, 0, 0, 0, 0, 0, 0, 0),
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    )


# -- compute_k ---------------------------------------------------------------


def test_compute_needs_depth_two():
    with pytest.raises(PreconditionError):
        compute_k(build_strand_graph(2), 1)


def test_single_strand_k_theory():
    for depth in (2, 3, 4):
        kr = compute_k(build_strand_graph(1), depth)
        assert kr.invariants.is_trivial()
        assert kr.k1_rank == 1


def test_multi_strand_k_theory():
    for p in (2, 3):
        kr = compute_k(build_strand_graph(p + 1), 3)
        assert kr.invariants.is_trivial()
        assert kr.k1_rank == p


def test_strand_kernel_is_sum_zero_on_first_ring():
    # kernel vectors live on the depth-1 columns and sum to zero there
    for m in (3, 4):
        kr = compute_k(build_strand_graph(m), 3)
        cols = kr.boundary.col_index
        first_ring = {j for j, c in enumerate(cols) if c.endswith("[1]")}
        assert len(first_ring) == m
        for k in range(kr.k1_basis.cols):
            vec = kr.k1_basis.col(k)
            assert all(vec[j] == 0 for j in range(len(cols)) if j not in first_ring)
            assert sum(vec) == 0
        assert kr.k1_rank == m - 1


def test_deleted_strand_k_theory():
    for p in (2, 3):
        g = delete_strand(build_strand_graph(p + 1, cyclic=True), 0)
        kr = compute_k(g, 3)
        assert kr.invariants.is_trivial()
        assert kr.k1_rank == p - 1


def test_z5_invariant_factors():
    kr = compute_k(build_group_graph(z5_mult4()), 3)
    assert kr.invariants.torsion == (5,)
    assert kr.invariants.free_rank == 0
    assert kr.k1_rank == 0


def test_an_unknown_window_vertex_raises_as_before():
    kr = compute_k(build_strand_graph(4, cyclic=True), 3)
    with pytest.raises(PreconditionError, match=r"^'nope' is not a window vertex$"):
        kr.class_of("nope")
    with pytest.raises(PreconditionError, match=r"^'s1\[4\]' is not a window vertex$"):
        kr.class_of("s1[4]")


def test_k1_rank_is_read_off_v_and_the_lattice_built_on_first_read():
    kr = compute_k(build_strand_graph(8, cyclic=True), 4)
    assert "k1" not in vars(kr)
    assert kr.k1_rank == 7
    assert "k1" not in vars(kr)
    assert kr.k1.rank == kr.k1_rank == kr.k1_basis.cols
    assert kr.k1 is kr.k1
    assert (kr.boundary.matrix @ kr.k1_basis).is_zero()


def test_group_graph_vertex_classes():
    kr = compute_k(build_group_graph(z2_degenerate()), 2)
    assert set(kr.vertex_classes) == {"a0", "z0", "z0+", "v"}
    assert kr.vertex_classes["v"] == (0,)
    assert kr.vertex_classes["z0"] == (0,)
    assert kr.vertex_classes["a0"] != (0,)


def test_ray_classes_vanish():
    kr = compute_k(build_group_graph(z3sq_swap()), 3)
    assert kr.class_of("c[1]") == (0, 0)
    assert kr.class_of("y0[2]") == (0, 0)
    assert kr.class_of("x(a1)[1]") == (0, 0)


def test_class_of_unknown_vertex():
    kr = compute_k(build_strand_graph(2), 2)
    with pytest.raises(PreconditionError):
        kr.class_of("nope")


def test_free_group_graph_k0():
    kr = compute_k(build_group_graph(zsq_swap()), 3)
    assert kr.invariants.torsion == ()
    assert kr.invariants.free_rank == 2
    assert kr.k1_rank == 0
    assert sorted([kr.vertex_classes["a1"], kr.vertex_classes["a2"]]) == [(0, 1), (1, 0)]


def test_empty_graph_k_theory():
    kr = compute_k(empty_graph(), 2)
    assert kr.invariants.is_trivial()
    assert kr.k1_rank == 0


# -- induced action ----------------------------------------------------------


def test_strand_induced_k1_cycle_structure():
    for p in (2, 3):
        g = build_strand_graph(p + 1, cyclic=True)
        kr = induced_action(g, compute_k(g, 2))
        m1 = kr.induced_k1
        assert m1.rows == p
        assert fixed_rank(m1) == 1
        assert poly_divides(x_pow_minus_one(p), charpoly(m1))
        assert m1.pow(p) == IntMatrix.identity(p)


def test_deleted_strand_induced_k1_is_free_cycle():
    for p in (2, 3):
        g = delete_strand(build_strand_graph(p + 1, cyclic=True), 0)
        kr = induced_action(g, compute_k(g, 2))
        assert fixed_rank(kr.induced_k1) == 0
        assert kr.induced_k1.pow(p) == IntMatrix.identity(p - 1)


def test_identity_automorphism_induces_identities():
    g = build_strand_graph(3)
    kr = induced_action(g, compute_k(g, 2))
    assert kr.induced_k1 == IntMatrix.identity(2)
    assert kr.induced_k0 == IntMatrix.zeros(0, 0)


def test_zsq_induced_k0_is_the_swap():
    g = build_group_graph(zsq_swap())
    kr = induced_action(g, compute_k(g, 3))
    a1, a2 = kr.vertex_classes["a1"], kr.vertex_classes["a2"]
    assert kr.reduce_class(kr.induced_k0.apply(a1)) == a2
    assert kr.reduce_class(kr.induced_k0.apply(a2)) == a1
    assert kr.induced_k0.pow(2) == IntMatrix.identity(2)


def test_induced_k0_order_divides_p():
    for make in ALL_SPECS:
        spec = make()
        g = build_group_graph(spec)
        kr = induced_action(g, compute_k(g, 2))
        m0 = kr.induced_k0
        powp = m0.pow(spec.p)
        ident = kr.reduce_matrix(IntMatrix.identity(m0.rows))
        assert kr.reduce_matrix(powp) == ident


def test_induced_classes_track_sigma():
    spec = z7_mult2()
    g = build_group_graph(spec)
    kr = induced_action(g, compute_k(g, 2))
    for a in spec.labels:
        moved = kr.reduce_class(kr.induced_k0.apply(kr.vertex_classes[a]))
        assert moved == kr.vertex_classes[spec.sigma_label(a)]


# -- truncation oracle -------------------------------------------------------


def test_stabilization_needs_two_depths():
    with pytest.raises(PreconditionError):
        stabilization_check(build_strand_graph(2), depths=(3,))
    with pytest.raises(PreconditionError):
        stabilization_check(build_strand_graph(2), depths=(1, 2))


def test_all_shipped_graphs_stable():
    graphs = [
        build_strand_graph(1),
        build_strand_graph(3, cyclic=True),
        build_strand_graph(4, cyclic=True),
        delete_strand(build_strand_graph(4, cyclic=True), 0),
    ]
    graphs += [build_group_graph(make()) for make in ALL_SPECS]
    for g in graphs:
        report = stabilization_check(g, depths=(2, 3, 4))
        assert report.stable, report


def test_misclosed_fixture_is_unstable():
    report = stabilization_check(misclosed_fixture(), depths=(2, 3, 4))
    assert not report.stable
    assert report.invariants[0] != report.invariants[1]
    # the kernel rank alone does not expose the leak; K0 does
    assert report.k1_ranks == (1, 1, 1)


def test_core_relations_for_z2():
    kr = compute_k(build_group_graph(z2_degenerate()), 2)
    rel = core_class_relations(kr)
    # core order (a0, z0, z0+, v): a0 has order 2, the others vanish
    expected = Lattice.spanned_by(
        [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4
    )
    assert rel == expected


# -- group graph verification ------------------------------------------------


def test_all_instances_verify():
    for make in ALL_SPECS:
        spec = make()
        report = verify_group_graph(build_group_graph(spec), spec)
        assert isinstance(report, GroupVerification)
        assert report.passed, [c for c in report.checks if not c.passed]


def test_verification_check_names():
    spec = z5_mult4()
    report = verify_group_graph(build_group_graph(spec), spec)
    names = [c.name for c in report.checks]
    assert names == [
        "finite-description",
        "irreducible",
        "unique-infinite-emitter",
        "automorphism",
        "equivariant-injection",
        "k0-invariant-factors",
        "k0-explicit-isomorphism",
        "k1-trivial",
        "class-map-functoriality",
        "cross-pipeline-invariants",
        "induced-k0-equals-action",
    ]


def test_degenerate_action_is_flagged():
    spec = z2_degenerate()
    report = verify_group_graph(build_group_graph(spec), spec)
    assert report.passed
    assert "degenerate" in report.check("automorphism").detail


def test_verification_catches_wrong_spec():
    report = verify_group_graph(build_group_graph(z5_mult4()), z7_mult2())
    assert not report.passed
    assert not report.check("equivariant-injection").passed
    assert not report.check("k0-invariant-factors").passed


def test_verification_catches_structural_damage():
    import dataclasses

    g = build_group_graph(z3sq_swap())
    broken = dataclasses.replace(
        g,
        vertices=g.vertices + ("stray",),
        aut_vertices=g.aut_vertices + (("stray", "stray"),),
    )
    report = verify_group_graph(broken, z3sq_swap())
    assert not report.check("unique-infinite-emitter").passed
    assert not report.check("irreducible").passed


def test_cross_pipeline_agreement():
    for make in ALL_SPECS:
        spec = make()
        kr = compute_k(build_group_graph(spec), 3)
        assert quotient_invariants(len(spec.labels), spec.b_lattice()) == kr.invariants


def test_automorphism_order_matches_action_order():
    expected = {"z2_degenerate": 1, "z5_mult4": 2, "z7_mult2": 3, "z3sq_swap": 2, "zsq_swap": 2}
    for make in ALL_SPECS:
        spec = make()
        report = verify_group_graph(build_group_graph(spec), spec)
        check = report.check("automorphism")
        assert check.passed
        assert f"action order {expected[make.__name__]}" in check.detail


def k1_graphs():
    for m in range(1, 17):
        for cyclic in (False, True):
            yield f"strand {m}{' cyclic' if cyclic else ''}", build_strand_graph(m, cyclic)
    yield from data_group_graphs()
    for spec in ALL_SPECS:
        yield spec.__name__, build_group_graph(spec())


class TestK1FromSmithTransform:
    def test_matches_the_kernel_of_the_boundary_matrix(self):
        for name, g in k1_graphs():
            for depth in range(2, 7):
                want = kernel_basis(boundary_matrix(g, depth).matrix).basis
                assert compute_k(g, depth).k1_basis == want, (name, depth)

    def test_basis_outside_the_kernel_is_caught(self, monkeypatch):
        real_snf = cyclat.ktheory.snf

        def identity_v(a):
            res = real_snf(a)
            return dataclasses.replace(res, v=IntMatrix.identity(a.cols))

        monkeypatch.setattr(cyclat.ktheory, "snf", identity_v)
        with pytest.raises(InternalInvariantError, match="K1 basis"):
            compute_k(build_strand_graph(4), 2)
