"""Exact call counts that pin "nothing computed twice" on fixed invocations.

Each test wraps one function on every ``cyclat`` module attribute that is
bound to it (methods on their class), runs a fixed invocation, and asserts
how often the function ran.  A change that brings back a repeated
computation fails here instead of only showing up as slower runs.
"""

import argparse
import pathlib
import sys

import pytest

import cyclat
from cyclat.cli import main
from cyclat.intlinalg import IntMatrix, Lattice, column_rank, kernel_basis
from cyclat.presentation import EquivariantLattice, build_aug, find_invariant_basis
from cyclat.zmod import FinMod, build, parse_modspec

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


def test_graph_verify_validates_group_once(monkeypatch, capsys):
    # each validation of a group description builds the group as one FinMod
    calls = count_calls(monkeypatch, FinMod, "__init__")
    rc = run_cli(capsys, "graph", "verify", "--file", str(DATA / "group_z5.json"), "--p", "2")
    assert rc == 0
    assert len(calls) == 1


def test_kernel_check_restricts_the_action_once(monkeypatch, capsys):
    transforms = count_calls(monkeypatch, Lattice, "transform")
    solves = count_calls(monkeypatch, Lattice, "solve")
    eliminations = count_calls(monkeypatch, cyclat.intlinalg, "solve_columns")
    assert run_cli(capsys, "module", "check-noncyc", "cyclicR(2,2)", "--p", "2") == 0
    assert len(transforms) == 0
    # the module's two relation checks in Z^2, then the presentation
    # kernel's one invariance check in Z^16, each against a canonical basis
    assert [args[0].ambient for args in solves] == [2, 2, 16]
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


def test_basis_search_reuses_the_noncyclotomy_verdict(monkeypatch):
    # the norm kernel is one kernel_basis; asking again, or searching for a
    # basis afterwards, reads the witness kept on the lattice
    eq = build_aug(build(parse_modspec("cyclicR(2,1)+triv(2)"), 3)).kernel_pair()
    calls = count_calls(monkeypatch, cyclat.intlinalg, "kernel_basis")
    assert eq.is_noncyclotomic()
    k, _ = find_invariant_basis(eq)
    assert k == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["build", "present"])
def test_oversize_module_is_refused_from_its_spec(monkeypatch, capsys, command):
    # the order 2^7919 is read off the spec, so no relation lattice is built
    calls = count_calls(monkeypatch, Lattice, "__init__")
    assert main(["module", command, "cyclicR(2,1)", "--p", "7919"]) == 65
    bound = cyclat.zmod.MAX_ENUMERATION
    want = f"module of order {2 ** 7919} is too large to list its elements (bound {bound})"
    assert capsys.readouterr() == ("", f"cyclat: bad input: {want}\n")
    assert len(calls) == 0
