"""Exact call counts that pin "nothing computed twice" on fixed invocations.

Each test wraps one function on every ``cyclat`` module attribute that is
bound to it (methods on their class), runs a fixed invocation, and asserts
how often the function ran.  A change that brings back a repeated
computation fails here instead of only showing up as slower runs.
"""

import pathlib
import sys

import pytest

import cyclat
from cyclat.cli import main
from cyclat.intlinalg import Lattice
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
    assert len(inv_calls) == 1


def test_graph_build_checks_irreducibility_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, cyclat.graphkit, "is_irreducible")
    assert run_cli(capsys, "graph", "build", "--strand", "4", "--cyclic", "--p", "3") == 0
    assert len(calls) == 1


def test_module_build_lists_orbits_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, FinMod, "orbits")
    assert run_cli(capsys, "module", "build", "cyclicR(2,1) + triv(3)", "--p", "2") == 0
    assert len(calls) == 1


def test_constructive_basis_presents_each_shape_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, cyclat.presentation, "build_aug")
    rc = run_cli(capsys, "module", "invariant-basis", "cyclicR(2,1)+triv(2)", "--p", "5")
    assert rc == 0
    # the whole sum, presented once for the command and reused by the
    # constructive route, and the two leaves
    assert len(calls) == 3


def test_constructive_basis_reuses_a_leaf_presentation(monkeypatch):
    eq = build_aug(build(parse_modspec("cyclicR(2,1)"), 2)).kernel_pair()
    calls = count_calls(monkeypatch, cyclat.presentation, "build_aug")
    k, _ = find_invariant_basis(eq)
    assert k == 0
    assert len(calls) == 0


@pytest.mark.parametrize("action", ["check", "witness", "diagram"])
def test_inclusion_decides_twist_condition_once(monkeypatch, capsys, action):
    calls = count_calls(monkeypatch, cyclat.lattice_props, "check_t_condition")
    rc = run_cli(capsys, "inclusion", action, "cyclicR(2,2)", "--sub", "t", "--p", "2")
    assert rc == 1
    assert len(calls) == 1


def test_graph_verify_validates_group_once(monkeypatch, capsys):
    # each validation of a group description builds the group as one FinMod
    calls = count_calls(monkeypatch, FinMod, "__init__")
    rc = run_cli(capsys, "graph", "verify", "--file", str(DATA / "group_z5.json"), "--p", "2")
    assert rc == 0
    assert len(calls) == 1


def test_kernel_check_restricts_the_action_once(monkeypatch, capsys):
    transforms = count_calls(monkeypatch, Lattice, "transform")
    solves = count_calls(monkeypatch, cyclat.intlinalg, "solve_columns")
    assert run_cli(capsys, "module", "check-noncyc", "cyclicR(2,2)", "--p", "2") == 0
    assert len(transforms) == 0
    assert len(solves) == 1


def test_graph_ktheory_reads_k1_off_the_smith_transform(monkeypatch, capsys):
    kernels = count_calls(monkeypatch, cyclat.intlinalg, "kernel_basis")
    hnfs = count_calls(monkeypatch, cyclat.intlinalg, "hnf")
    assert run_cli(capsys, "graph", "ktheory", "--strand", "4", "--p", "3") == 0
    assert len(kernels) == 0
    # the canonical K1 basis, inv_unimodular for the K0 action, the K1 action solve
    assert len(hnfs) == 3


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
