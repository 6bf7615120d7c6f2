"""Exact call counts that pin "nothing computed twice" on fixed invocations.

Each test wraps one function on every ``cyclat`` module attribute that is
bound to it (methods on their class), runs a fixed invocation, and asserts
how often the function ran.  A change that brings back a repeated
computation fails here instead of only showing up as slower runs.
"""

import argparse
import pathlib
import random
import sys

import pytest

import cyclat
from cyclat.cli import main
from cyclat.graphkit import GroupGraphSpec
from cyclat.intlinalg import IntMatrix, Lattice, column_rank, kernel_basis
from cyclat.lattice_props import InclusionPair, inclusion_diagram
from cyclat.presentation import EquivariantLattice, build_aug, find_invariant_basis
from cyclat.zmod import FinMod, build, parse_modspec, random_module

DATA = pathlib.Path(__file__).parent / "data"


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a counting wrapper; returns the list of calls."""
    orig = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, wrapper)
        return calls
    modules = [m for n, m in sys.modules.items() if n == "cyclat" or n.startswith("cyclat.")]
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                monkeypatch.setattr(mod, key, wrapper)
    return calls


def run_cli(capsys, *argv):
    rc = main(list(argv))
    capsys.readouterr()
    return rc


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    calls = count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    cyclat.cli._build_parser.cache_clear()
    assert run_cli(capsys, "ring-identities", "--p", "2") == 0
    # the program parser, the shared flags and the four command parsers
    assert len(calls) == 6
    argvs = [
        ("module", "check-noncyc", "cyclicR(2,2)", "--p", "2"),
        ("inclusion", "check", "cyclicR(2,1)", "--sub", "full", "--p", "2"),
        ("graph", "build", "--strand", "2"),
        ("ring-identities", "--p", "3"),
        ("module", "frobnicate", "cyclicR(2,1)"),
    ]
    assert [run_cli(capsys, *argv) for argv in argvs * 2] == [0, 0, 0, 0, 64] * 2
    assert len(calls) == 6


def test_module_present_decides_noncyclotomic_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, EquivariantLattice, "is_noncyclotomic")
    assert run_cli(capsys, "module", "present", "cyclicR(2,1)", "--p", "2") == 0
    assert len(calls) == 1


def test_graph_verify_computes_k_and_inverse_once(monkeypatch, capsys):
    k_calls = count_calls(monkeypatch, cyclat.ktheory, "compute_k")
    inv_calls = count_calls(monkeypatch, cyclat.intlinalg, "inv_unimodular")
    rc = run_cli(capsys, "graph", "verify", "--file", str(DATA / "group_z5.json"), "--p", "2")
    assert rc == 0
    assert len(k_calls) == 1
    # snf builds the inverse of its row transform alongside it
    assert len(inv_calls) == 0


def test_graph_build_checks_irreducibility_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, cyclat.graphkit, "is_irreducible")
    assert run_cli(capsys, "graph", "build", "--strand", "4", "--cyclic", "--p", "3") == 0
    assert len(calls) == 1


def test_module_build_lists_orbits_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, FinMod, "orbits")
    assert run_cli(capsys, "module", "build", "cyclicR(2,1) + triv(3)", "--p", "2") == 0
    assert len(calls) == 1


def test_module_build_refuses_an_oversize_module_before_the_smith_form(monkeypatch, capsys):
    calls = count_calls(monkeypatch, cyclat.intlinalg, "snf")
    assert run_cli(capsys, "module", "build", "cyclicR(2,1)", "--p", "101") == 65
    assert len(calls) == 0


def test_module_build_runs_the_smith_form_once(monkeypatch, capsys):
    # the invariant factors printed and the structure line share one snf
    calls = count_calls(monkeypatch, cyclat.intlinalg, "snf")
    assert run_cli(capsys, "module", "build", "cyclicR(2,1) + triv(3)", "--p", "2") == 0
    assert len(calls) == 1


def test_constructive_basis_presents_each_shape_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, cyclat.presentation, "build_aug")
    rc = run_cli(capsys, "module", "invariant-basis", "cyclicR(2,1)+triv(2)", "--p", "5")
    assert rc == 0
    # the whole sum, presented once for the command; the constructive route
    # reads the leaves' vectors off its orbits without presenting them
    assert len(calls) == 1


def test_constructive_basis_reuses_a_leaf_presentation(monkeypatch):
    eq = build_aug(build(parse_modspec("cyclicR(2,1)"), 2)).kernel_pair()
    calls = count_calls(monkeypatch, cyclat.presentation, "build_aug")
    k, _ = find_invariant_basis(eq)
    assert k == 0
    assert len(calls) == 0


def test_constructive_basis_builds_no_module(monkeypatch):
    # M's relations and action are compared with the leaves' diagonal and
    # shifts directly, not with a module rebuilt from M's shape
    eq = build_aug(build(parse_modspec("cyclicR(2,1)+triv(2)+triv(3)"), 3)).kernel_pair()
    calls = count_calls(monkeypatch, FinMod, "__init__")
    k, _ = find_invariant_basis(eq)
    assert k == 0
    assert len(calls) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("module", "build", "cyclicR(2,1) + triv(3)", "--p", "2"),
        ("module", "present", "cyclicR(2,1)+triv(2)", "--p", "5"),
    ],
)
def test_a_sum_of_leaves_is_built_as_one_module(monkeypatch, capsys, argv):
    # build lays the whole sum out from its leaf table, with no module per
    # leaf or per partial sum
    calls = count_calls(monkeypatch, FinMod, "__init__")
    assert run_cli(capsys, *argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("action", ["check", "witness", "diagram"])
def test_inclusion_decides_twist_condition_once(monkeypatch, capsys, action):
    calls = count_calls(monkeypatch, cyclat.lattice_props, "check_t_condition")
    rc = run_cli(capsys, "inclusion", action, "cyclicR(2,2)", "--sub", "t", "--p", "2")
    assert rc == 1
    assert len(calls) == 1


@pytest.mark.parametrize(
    "spec,sub,p,presented",
    [("cyclicR(2,1)", "full", "2", 2), ("cyclicR(2,1)+triv(2)", "t", "3", 2)],
)
def test_inclusion_diagram_presents_each_module_once(monkeypatch, capsys, spec, sub, p, presented):
    calls = count_calls(monkeypatch, cyclat.presentation, "build_aug")
    assert run_cli(capsys, "inclusion", "diagram", spec, "--sub", sub, "--p", p) == 0
    # the pair presents M and M_0 and both stabilized rows reuse them
    assert len(calls) == presented


def test_inclusion_diagram_builds_no_kernel_lattice_of_its_own(monkeypatch, capsys):
    # the presentations of M and M_0 build one each; the projection of the
    # stabilized row reads the kernel the search already checked
    calls = count_calls(monkeypatch, EquivariantLattice, "__init__")
    assert run_cli(capsys, "inclusion", "diagram", "cyclicR(2,1)", "--sub", "full", "--p", "2") == 0
    assert len(calls) == 2


def test_inclusion_diagram_builds_each_stabilized_kernel_once(monkeypatch):
    # the 58th draw of random.Random(11), whose basis search needs k = 3; the
    # projection step splits off the small kernel in the lattice the search split
    rng = random.Random(11)
    for _ in range(58):
        p = rng.choice([2, 3, 5])
        m = random_module(rng, p, max_order=64)
        rng.choice([1, 2])
    calls = count_calls(monkeypatch, EquivariantLattice, "__init__")
    report = inclusion_diagram(InclusionPair(m, m.submodule_from_lattice(m.rel)))
    assert report.condition_holds and report.diagram.row.k == 3
    # M's kernel, the zero module's, then M's kernel plus 1, 2 and 3 regular blocks
    assert [args[2].rank for args in calls] == [64, 1, 67, 70, 73]


def test_graph_verify_validates_group_once(monkeypatch, capsys):
    # each validation of a group description builds the group as one FinMod
    calls = count_calls(monkeypatch, FinMod, "__init__")
    rc = run_cli(capsys, "graph", "verify", "--file", str(DATA / "group_z5.json"), "--p", "2")
    assert rc == 0
    assert len(calls) == 1


def test_graph_verify_pushes_each_relation_vector_once(monkeypatch, capsys):
    # validate and the automorphism of the built graph share relation_perm
    calls = count_calls(monkeypatch, GroupGraphSpec, "gamma_vec")
    rc = run_cli(capsys, "graph", "verify", "--file", str(DATA / "group_z5.json"), "--p", "2")
    assert rc == 0
    assert len(calls) == 5


def test_kernel_check_restricts_the_action_once(monkeypatch, capsys):
    transforms = count_calls(monkeypatch, Lattice, "transform")
    solves = count_calls(monkeypatch, Lattice, "solve")
    eliminations = count_calls(monkeypatch, cyclat.intlinalg, "solve_columns")
    assert run_cli(capsys, "module", "check-noncyc", "cyclicR(2,2)", "--p", "2") == 0
    assert len(transforms) == 0
    # the module's two relation checks in Z^2, the presentation kernel's
    # certificate in Z^2, its one invariance check in Z^16, and the span
    # check of the split basis that decides noncyclotomy in Z^16, each
    # against a canonical basis
    assert [args[0].ambient for args in solves] == [2, 2, 2, 16, 16]
    assert len(eliminations) == 0


def test_graph_ktheory_reads_k1_off_the_smith_transform(monkeypatch, capsys):
    kernels = count_calls(monkeypatch, cyclat.intlinalg, "kernel_basis")
    hnfs = count_calls(monkeypatch, cyclat.intlinalg, "hnf")
    assert run_cli(capsys, "graph", "ktheory", "--strand", "4", "--p", "3") == 0
    assert len(kernels) == 0
    # snf returns U^-1 for the K0 action, and the K1 action is solved
    # against the kernel's Lattice, whose basis is already in Hermite form
    assert len(hnfs) == 0


def test_lattice_bases_do_not_build_the_hnf_transform(monkeypatch):
    # Lattice and column_rank read H alone, and kernels, preimages,
    # intersections and solves against a Lattice never need U
    a = IntMatrix([[2, 4, 1, 0], [0, 6, 3, 3], [1, 1, 1, 1]])
    calls = count_calls(monkeypatch, cyclat.intlinalg, "hnf")
    lat = Lattice(3, a)
    assert Lattice.full(5).rank == 5
    assert lat.rank == 3
    assert column_rank(a) == 3
    assert kernel_basis(a).rank == 1
    assert lat.intersect(Lattice.full(3)) == lat
    assert lat.solve(a) is not None
    assert lat.contains(Lattice(3, 2 * a))
    assert len(calls) == 0


@pytest.mark.parametrize("command", ["present", "invariant-basis"])
def test_module_commands_never_run_hnf(monkeypatch, capsys, command):
    # every solve there is against a Lattice basis and every kernel a preimage
    calls = count_calls(monkeypatch, cyclat.intlinalg, "hnf")
    assert run_cli(capsys, "module", command, "cyclicR(2,1)+triv(2)", "--p", "5") == 0
    assert len(calls) == 0


@pytest.mark.parametrize(
    "argv,spec,rc",
    [
        (("module", "invariant-basis"), "cyclicR(2,1)+triv(2)", 0),
        (("inclusion", "check"), "cyclicR(2,2)", 1),
    ],
)
def test_spec_file_is_read_once(monkeypatch, capsys, tmp_path, argv, spec, rc):
    # the module built and the spec printed come from one read of the file
    path = tmp_path / "spec.txt"
    path.write_text(spec + "\n", encoding="utf-8")
    calls = count_calls(monkeypatch, cyclat.cli, "_read_spec_arg")
    assert run_cli(capsys, *argv, f"@{path}", "--p", "2") == rc
    assert len(calls) == 1


def test_ring_identities_decomposes_p_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, cyclat.cyclo_ring, "decompose_prime")
    assert run_cli(capsys, "ring-identities", "--p", "13") == 0
    assert len(calls) == 1


def _without_shape(m):
    return FinMod(m.p, m.r, m.rel, m.aut)


@pytest.mark.parametrize(
    "module",
    [
        build(parse_modspec("cyclicR(2,1)+triv(2)"), 3),
        _without_shape(build(parse_modspec("triv(2)+triv(3)"), 3)),
    ],
    ids=["shaped", "trivial-action"],
)
def test_basis_search_returns_the_basis_that_settled_noncyclotomy(monkeypatch, module):
    # a shaped kernel's constructive split basis, or the canonical basis of a
    # lattice the action fixes pointwise, settles the verdict with no norm
    # kernel; asking again, or searching for a basis afterwards, reads the
    # verdict and the basis kept on the lattice
    eq = build_aug(module).kernel_pair()
    kernels = count_calls(monkeypatch, cyclat.intlinalg, "kernel_basis")
    completions = count_calls(monkeypatch, cyclat.intlinalg, "solve_columns")
    built = count_calls(monkeypatch, cyclat.presentation, "_constructive_basis")
    assert eq.is_noncyclotomic()
    assert eq.is_noncyclotomic()
    k, basis = find_invariant_basis(eq)
    assert k == 0 and basis is eq._basis
    assert len(kernels) == 0
    assert len(completions) == 0
    assert len(built) == 1


def test_identity_action_is_restricted_without_a_power_or_a_solve(monkeypatch):
    lattice = build_aug(build(parse_modspec("triv(4)"), 5)).N
    powers = count_calls(monkeypatch, IntMatrix, "pow")
    solves = count_calls(monkeypatch, Lattice, "solve")
    eq = EquivariantLattice(5, lattice, IntMatrix.identity(4))
    assert eq.restricted() == IntMatrix.identity(4)
    assert len(powers) == 0 and len(solves) == 0


@pytest.mark.parametrize("command", ["build", "present"])
def test_oversize_module_is_refused_from_its_spec(monkeypatch, capsys, command):
    # the order 2^7919 is read off the spec, so no relation lattice is built
    calls = count_calls(monkeypatch, Lattice, "__init__")
    assert main(["module", command, "cyclicR(2,1)", "--p", "7919"]) == 65
    bound = cyclat.zmod.MAX_ENUMERATION
    want = f"module of order {2 ** 7919} is too large to list its elements (bound {bound})"
    assert capsys.readouterr() == ("", f"cyclat: bad input: {want}\n")
    assert len(calls) == 0


@pytest.mark.parametrize(
    "m, completed",
    [
        (FinMod(2, 1, Lattice.spanned_by([(5,)], 1), IntMatrix([[4]])), [True]),
        (FinMod(3, 1, Lattice.spanned_by([(13,)], 1), IntMatrix([[3]])), [False, False, False, True]),
    ],
    ids=["Z/5-times-4-p2", "Z/13-times-3-p3"],
)
def test_greedy_search_runs_one_smith_form_per_completed_extraction(monkeypatch, m, completed):
    # Z/n under multiplication has no shape, so its kernel takes the greedy
    # search; each candidate is decided without a Smith form
    eq = build_aug(m).kernel_pair()
    assert eq.is_noncyclotomic()
    extract = cyclat.presentation._extract_orbits
    found = []

    def recording(*args):
        found.append(extract(*args))
        return found[-1]

    monkeypatch.setattr(cyclat.presentation, "_extract_orbits", recording)
    calls = count_calls(monkeypatch, cyclat.intlinalg, "snf")
    k, _ = find_invariant_basis(eq, allow_stabilization=True)
    assert k == 0
    assert [f is not None for f in found] == completed
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command, message",
    [
        (("module", "build"), "cannot enumerate an infinite module"),
        (("module", "present"), "only finite modules have a finite element basis"),
        (("module", "invariant-basis"), "only finite modules have a finite element basis"),
        (("module", "check-noncyc"), "only finite modules have a finite element basis"),
        (("inclusion", "check"), "only finite modules have a finite element basis"),
    ],
    ids=lambda x: "-".join(x) if isinstance(x, tuple) else None,
)
def test_infinite_module_is_refused_from_its_spec(monkeypatch, capsys, command, message):
    # a free leaf makes the order infinite, which the spec tells before any lattice
    calls = count_calls(monkeypatch, Lattice, "__init__")
    assert main([*command, "freeR(1)+cyclicR(2,1)", "--p", "7919"]) == 65
    assert capsys.readouterr() == ("", f"cyclat: bad input: {message}\n")
    assert len(calls) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--sub", "t"],
        ["witness", "--sub", "t"],
        ["diagram"],
        ["check", "--sub", "zero"],
        ["check", "--sub", "gens", "--gens", ",".join(["1"] + ["0"] * 2002)],
    ],
    ids=["check", "witness", "diagram", "check-zero", "check-gens"],
)
def test_oversize_inclusion_is_refused_from_its_spec(monkeypatch, capsys, argv):
    # InclusionPair would list M's elements first, so the refusal cites |M|
    calls = count_calls(monkeypatch, Lattice, "__init__")
    assert main(["inclusion", argv[0], "cyclicR(2,1)", *argv[1:], "--p", "2003"]) == 65
    bound = cyclat.zmod.MAX_ENUMERATION
    want = f"module of order {2 ** 2003} is too large to list its elements (bound {bound})"
    assert capsys.readouterr() == ("", f"cyclat: bad input: {want}\n")
    assert len(calls) == 0


@pytest.mark.parametrize(
    "gens, message",
    [
        ([], "--sub gens requires --gens"),
        (["--gens", "1,0"], "generator vector '1,0' has length 2, expected 2003"),
        (["--gens", "x,0"], "bad generator vector 'x,0'"),
    ],
    ids=["missing", "short", "not-integers"],
)
def test_gens_usage_errors_come_before_the_oversize_refusal(monkeypatch, capsys, gens, message):
    # the width comes from the rank read off the spec, so no lattice is built
    calls = count_calls(monkeypatch, Lattice, "__init__")
    argv = ["inclusion", "check", "cyclicR(2,1)", "--sub", "gens", *gens, "--p", "2003"]
    assert main(argv) == 64
    assert capsys.readouterr() == ("", f"cyclat: usage error: {message}\n")
    assert len(calls) == 0
