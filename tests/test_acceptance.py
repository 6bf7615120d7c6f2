"""Acceptance gate: one test per shipped guarantee, exact arithmetic only.

Each test prints a single ACCEPTANCE line so a log scan shows every
guarantee with its verdict.  Timed criteria assert their budget.
"""

import random
import time

import pytest

from cyclat.cyclo_ring import const, decompose_prime, norm, twist
from cyclat.graphkit import build_group_graph, build_strand_graph, delete_strand
from cyclat.intlinalg import (
    IntMatrix,
    Lattice,
    QuotientInvariants,
    charpoly,
    column_rank,
    kernel_basis,
    quotient_invariants,
)
from cyclat.ktheory import (
    compute_k,
    induced_action,
    stabilization_check,
    verify_group_graph,
)
from cyclat.lattice_props import (
    InclusionPair,
    check_t_condition,
    check_t_intersection,
    find_equivariant_projection,
    find_impurity_witness,
)
from cyclat.presentation import (
    assemble_direct_sum,
    build_aug,
    cyclic_r_basis,
    cyclic_trivial_basis,
)
from cyclat.zmod import CyclicR, DirectSum, TrivCyclic, build, direct_sum, random_module

from groupspecs import ALL_SPECS, z2_degenerate
from polyhelp import poly_divides

POOL_SEED = 20260819


def report(n, label):
    # a line of its own: under -s pytest's progress dot would otherwise lead it
    print(f"\nACCEPTANCE {n} PASS: {label}")


def rpow(e, k):
    out = const(e.p, 1)
    for _ in range(k):
        out = out * e
    return out


# ---------------------------------------------------------------------------
# 1. decomposition identities for small primes


def test_criterion_1_ring_identities():
    t0 = time.monotonic()
    for p in (2, 3, 5, 7, 11, 13):
        ids = decompose_prime(p)
        t, s = twist(p), norm(p)
        h, f, g = ids.core, ids.twist_coeff, ids.norm_coeff
        assert rpow(t, p - 1) == const(p, p) * h + s
        assert const(p, p) == const(p, -1) * rpow(t, p - 1) + rpow(t, p) * f + s * g
        assert sum(h.coeffs) == -1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"identity suite took {elapsed:.1f}s"
    report(1, f"decomposition identities for p up to 13 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. norm-kernel equals twist image on the canonical kernel lattice


def module_pool():
    rng = random.Random(POOL_SEED)
    mods = []
    for p in (2, 3):
        for _ in range(55):
            mods.append(random_module(rng, p, max_order=64))
    return mods


def test_criterion_2_norm_kernel_identity():
    t0 = time.monotonic()
    mods = module_pool()
    assert len(mods) >= 100
    for m in mods:
        pres = build_aug(m)
        n = pres.size
        a = pres.action
        nrm = IntMatrix.identity(n)
        acc = IntMatrix.identity(n)
        for _ in range(m.p - 1):
            acc = a @ acc
            nrm = nrm + acc
        lat = pres.kernel_pair().lattice
        lhs = kernel_basis(nrm).intersect(lat)
        rhs = Lattice(n, (a - IntMatrix.identity(n)) @ lat.basis)
        assert lhs == rhs
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"norm-kernel suite took {elapsed:.1f}s"
    report(2, f"{len(mods)} random modules, ker(norm) inside N equals twist N, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. kernel intersection identity on random inclusion pairs


def test_criterion_3_intersection_identity():
    rng = random.Random(POOL_SEED + 1)
    pairs = 0
    while pairs < 100:
        p = rng.choice((2, 3))
        m = random_module(rng, p, max_order=64)
        elems = m.enumerate()
        gens = rng.sample(elems, min(len(elems), rng.randint(1, 2)))
        pair = InclusionPair(m, m.submodule_generated(gens))
        assert check_t_intersection(pair)
        pairs += 1
    report(3, f"{pairs} random inclusion pairs satisfy the intersection identity")


# ---------------------------------------------------------------------------
# 4. direct-sum assembly: independent blocks, full span, equivariant cross part


def leaf_basis(shape, p):
    if isinstance(shape, TrivCyclic):
        return cyclic_trivial_basis(shape.n, p)
    return cyclic_r_basis(shape.q, shape.k, p)


def leaf_pool(p):
    shapes = [TrivCyclic(n) for n in range(2, 10)]
    shapes += [CyclicR(2, 1), CyclicR(3, 1)]
    if p == 2:
        shapes.append(CyclicR(2, 2))
    return [(s, build(s, p).order()) for s in shapes]


def test_criterion_4_direct_sum_assembly():
    rng = random.Random(POOL_SEED + 2)
    done = 0
    while done < 50:
        p = rng.choice((2, 3))
        pool = leaf_pool(p)
        (s1, o1), (s2, o2) = rng.choice(pool), rng.choice(pool)
        if o1 * o2 > 100:
            continue
        p1, p2 = build_aug(build(s1, p)), build_aug(build(s2, p))
        b = assemble_direct_sum(p1, p2, leaf_basis(s1, p), leaf_basis(s2, p))

        msum = direct_sum(p1.M, p2.M)
        psum = build_aug(msum)
        vecs = b.vectors()
        mat = IntMatrix.from_cols(vecs, rows=psum.size)
        assert column_rank(mat) == len(vecs)
        assert Lattice(psum.size, mat) == psum.kernel_pair().lattice

        r1 = p1.M.r
        z1 = p1.M.reduce((0,) * r1)
        z2 = p2.M.reduce((0,) * p2.M.r)

        def xi(x):
            v = list(psum.hat(x))
            left = tuple(x[:r1]) + (0,) * p2.M.r
            right = (0,) * r1 + tuple(x[r1:])
            for w in (psum.hat(left), psum.hat(right)):
                v = [a - c for a, c in zip(v, w)]
            return tuple(v)

        for x in psum.elements:
            if p1.M.reduce(x[:r1]) == z1 or p2.M.reduce(x[r1:]) == z2:
                continue
            lhs = psum.action.apply(xi(x))
            assert lhs == xi(msum.reduce(msum.act(x)))
        done += 1
    report(4, f"{done} random assemblies: blocks independent, spanning, equivariant")


# ---------------------------------------------------------------------------
# 5. twist condition is equivalent to an equivariant projection, order <= 16


def catalog_leaves():
    leaves = [(TrivCyclic(n), n) for n in range(2, 17)]
    leaves += [(CyclicR(2, 1), 4), (CyclicR(2, 2), 16), (CyclicR(3, 1), 9)]
    return leaves


def catalog_16():
    """Every grammar module of order <= 16 over p = 2, one per leaf multiset."""
    leaves = catalog_leaves()
    found = []

    def grow(start, parts, order):
        if parts:
            spec = parts[0] if len(parts) == 1 else DirectSum(tuple(parts))
            found.append(build(spec, 2))
        for i in range(start, len(leaves)):
            shape, o = leaves[i]
            if order * o <= 16:
                grow(i, parts + [shape], order * o)

    grow(0, [], 1)
    return found


def test_criterion_5_projection_equivalence():
    mods = catalog_16()
    assert len(mods) >= 30
    pairs = 0
    for m in mods:
        for span in m.invariant_subgroups():
            pair = InclusionPair(m, m.submodule_from_lattice(span))
            holds = check_t_condition(pair)
            has_proj = find_equivariant_projection(pair.N0, pair.eq()) is not None
            assert holds == has_proj
            pairs += 1

    m = build(CyclicR(2, 2), 2)
    pair = InclusionPair(m, m.submodule_from_lattice(m.t_image()))
    assert not check_t_condition(pair)
    w = find_impurity_witness(pair)
    assert w is not None and not w.pure
    assert w.lam == norm(2)
    assert find_equivariant_projection(pair.N0, pair.eq()) is None
    report(5, f"{pairs} exhaustive pairs: twist condition iff projection, witness at R/(4)")


# ---------------------------------------------------------------------------
# 6. strand graph K groups with stable truncation


def first_ring_sum_zero(g, kr):
    cols = kr.boundary.col_index
    ring = {j for j, c in enumerate(cols) if c.endswith("[1]")}
    for k in range(kr.k1_basis.cols):
        vec = kr.k1_basis.col(k)
        support = {j for j, c in enumerate(vec) if c}
        assert support <= ring and support
        assert sum(vec) == 0


def test_criterion_6_strand_k_groups():
    t0 = time.monotonic()
    g1 = build_strand_graph(1)
    for depth in (2, 3, 4):
        kr = compute_k(g1, depth)
        assert kr.invariants == QuotientInvariants((), 0)
        assert kr.k1_rank == 1
    assert stabilization_check(g1, (2, 3, 4)).stable

    for p in (2, 3):
        g = build_strand_graph(p + 1, cyclic=True)
        kr = compute_k(g, 3)
        assert kr.invariants == QuotientInvariants((), 0)
        assert kr.k1_rank == p
        first_ring_sum_zero(g, kr)
        assert stabilization_check(g, (2, 3, 4)).stable

        d = delete_strand(g, 0)
        kd = compute_k(d, 3)
        assert kd.invariants == QuotientInvariants((), 0)
        assert kd.k1_rank == p - 1
        assert stabilization_check(d, (2, 3, 4)).stable
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"strand suite took {elapsed:.1f}s"
    report(6, f"strand and deleted-strand K groups with stable truncation, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. group graphs realize their groups end to end


def test_criterion_7_group_graph_end_to_end():
    t0 = time.monotonic()
    for make in ALL_SPECS:
        spec = make()
        g = build_group_graph(spec)
        result = verify_group_graph(g, spec, depth=3)
        failed = [c.name for c in result.checks if not c.passed]
        assert result.passed, f"{make.__name__} failed {failed}"
        kr = compute_k(g, 3)
        assert kr.invariants == quotient_invariants(spec.group_rank, spec.group_rel)
    degen = verify_group_graph(build_group_graph(z2_degenerate()), z2_degenerate())
    assert "degenerate" in degen.check("automorphism").detail
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"group suite took {elapsed:.1f}s"
    report(7, f"five group graphs verified end to end in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. truncation is stable on every shipped graph


def all_test_graphs():
    graphs = [build_strand_graph(1)]
    for m in (2, 3, 4):
        graphs.append(build_strand_graph(m))
        graphs.append(build_strand_graph(m, cyclic=True))
    for p in (2, 3):
        graphs.append(delete_strand(build_strand_graph(p + 1, cyclic=True), 0))
    for make in ALL_SPECS:
        graphs.append(build_group_graph(make()))
    return graphs


def test_criterion_8_truncation_stability():
    graphs = all_test_graphs()
    for g in graphs:
        assert stabilization_check(g, (2, 3, 4)).stable
    report(8, f"depth truncation stable on all {len(graphs)} test graphs")


# ---------------------------------------------------------------------------
# 9. induced symmetry on the odd K group of strand graphs


def test_criterion_9_induced_k1_diagnostics():
    for p in (2, 3):
        g = build_strand_graph(p + 1, cyclic=True)
        kr = induced_action(g, compute_k(g, 3))
        m1 = kr.induced_k1
        fixed = kernel_basis(m1 - IntMatrix.identity(m1.rows)).rank
        assert fixed == 1
        cp = charpoly(m1)
        assert poly_divides((-1, 1), cp)
        assert poly_divides((1,) * p, cp)

    d = delete_strand(build_strand_graph(3, cyclic=True), 0)
    kd = induced_action(d, compute_k(d, 3))
    fixed = kernel_basis(kd.induced_k1 - IntMatrix.identity(kd.induced_k1.rows)).rank
    assert fixed == 0
    report(9, "induced K1 symmetry: fixed rank 1 on strands, 0 after deletion")
