"""Command line behavior: exit codes, output formats, golden files."""

import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cyclat
from cyclat.cli import main
from cyclat.graphkit import build_group_graph, build_strand_graph, to_dot

from groupspecs import z2_degenerate

GOLDEN = pathlib.Path(__file__).parent / "golden"
DATA = pathlib.Path(__file__).parent / "data"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# shared flags and exit codes


def test_nonprime_p_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "ring-identities", "--p", "4")
    assert rc == 64
    assert "must be prime" in err


def test_depth_below_two_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "graph", "ktheory", "--strand", "2", "--depth", "1")
    assert rc == 64
    assert "--depth" in err


def test_negative_kmax_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "ring-identities", "--kmax", "-1")
    assert rc == 64


def test_unknown_subcommand_is_usage_error(capsys):
    rc, _, _ = run_cli(capsys, "frobnicate")
    assert rc == 64


def test_help_raises_system_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _benchmark_session():
    """(argv, exit code) of each command of the benchmark's cli session, loaded read-only."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(list(argv), rc) for argv, rc, *_ in mod.SESSION]


def _run_each(capsys, argvs):
    runs = []
    for argv in argvs:
        try:
            rc = main(argv)
        except SystemExit as exc:  # --help
            rc = exc.code
        captured = capsys.readouterr()
        runs.append((rc, captured.out, captured.err))
    return runs


def test_shared_parser_answers_as_a_fresh_one(monkeypatch, capsys):
    # main reuses one parser per process: no value, default or error of one
    # command may carry into the next
    monkeypatch.chdir(ROOT)  # the session names its data files from the repo root
    session = _benchmark_session()
    assert len(session) == 28
    z5 = str(DATA / "group_z5.json")
    gens = ["inclusion", "check", "cyclicR(2,2)", "--sub", "gens", "--gens", "2,0;0,2", "--p", "2"]
    groups = [[cmd] for cmd in session] + [
        # a --p the file contradicts, then the file's own p
        [(["graph", "verify", "--file", z5, "--p", "3"], 64), (["graph", "verify", "--file", z5], 0)],
        # explicit generators, then the default twist image
        [(gens, 0), (["inclusion", "check", "cyclicR(2,2)", "--p", "2"], 1)],
        [(["module", "frobnicate", "cyclicR(2,1)"], 64)],
        [(["--help"], 0), (["module", "--help"], 0)],
    ]
    random.Random(1).shuffle(groups)
    cmds = [cmd for group in groups for cmd in group]
    argvs = [argv for argv, _ in cmds]
    shared = _run_each(capsys, argvs)
    monkeypatch.setattr(cyclat.cli, "_build_parser", cyclat.cli._build_parser.__wrapped__)
    fresh = _run_each(capsys, argvs)
    for (argv, rc), got, want in zip(cmds, shared, fresh):
        assert got == want, argv
        assert got[0] == rc, argv


def test_module_entrypoint_runs():
    # the child process imports the same cyclat package as this one
    src = str(pathlib.Path(cyclat.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cyclat", "ring-identities", "--p", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "core at 1: -1" in proc.stdout


def test_a_closed_stdout_pipe_keeps_the_verdict():
    # the output (about 180 KB) outgrows the pipe, so the child is still
    # writing when the reader closes its end after the first line
    src = str(pathlib.Path(cyclat.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclat", "module", "invariant-basis", "cyclicR(3,1)", "--p", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline() == b"invariant basis for cyclicR(3,1) over p = 5\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# ---------------------------------------------------------------------------
# ring-identities


def test_ring_identities_text(capsys):
    rc, out, _ = run_cli(capsys, "ring-identities", "--p", "3")
    assert rc == 0
    assert "core: -x" in out
    assert "core at 1: -1" in out
    assert "norm_coeff: 3 - 3*x + x^2" in out
    assert "power identities up to k = 4: ok" in out


def test_ring_identities_structured_golden(capsys):
    rc, out, _ = run_cli(capsys, "ring-identities", "--p", "3", "--format", "structured")
    assert rc == 0
    assert out == golden("ring_identities_p3.json")


def test_ring_identities_structured_is_json(capsys):
    _, out, _ = run_cli(capsys, "ring-identities", "--p", "5", "--format", "structured")
    data = json.loads(out)
    assert data["command"] == "ring-identities"
    assert data["core_at_1"] == -1
    assert data["power_identities_ok"] is True


# ---------------------------------------------------------------------------
# module


def test_module_build_text(capsys):
    rc, out, _ = run_cli(capsys, "module", "build", "cyclicR(2,1)", "--p", "2")
    assert rc == 0
    assert "structure: Z/2 x Z/2" in out
    assert "order: 4" in out
    assert "element orbits: 1 free, 2 fixed" in out


def test_module_build_bad_grammar(capsys):
    rc, _, err = run_cli(capsys, "module", "build", "cyclic(2,1)", "--p", "2")
    assert rc == 64


_FUZZ_LEAF = st.builds(
    lambda kw, args: f"{kw}({','.join(map(str, args))})",
    st.sampled_from(["triv", "trivfree", "cyclicR", "freeR"]),
    st.lists(st.integers(0, 12), min_size=1, max_size=2),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(["build", "check-noncyc"]),
    st.lists(_FUZZ_LEAF, min_size=1, max_size=3).map(" + ".join),
    st.sampled_from(["2", "3", "5"]),
)
def test_module_spec_fuzz_exits_with_a_documented_code(monkeypatch, capsys, action, spec, p):
    # a low listing bound keeps every case small; above it the refusal is the real one
    monkeypatch.setattr(cyclat.zmod, "MAX_ENUMERATION", 1024)
    rc, _, err = run_cli(capsys, "module", action, spec, "--p", p)
    assert rc in (0, 1, 64, 65, 75), (spec, rc, err)
    assert "unexpected error" not in err


def test_module_present(capsys):
    rc, out, _ = run_cli(capsys, "module", "present", "cyclicR(2,1)", "--p", "2")
    assert rc == 0
    assert "elements: 4" in out
    assert "kernel rank: 4" in out
    assert "noncyclotomic: true" in out


def test_module_present_infinite_refused(capsys):
    rc, _, err = run_cli(capsys, "module", "present", "freeR(1)", "--p", "2")
    assert rc == 65


def test_module_too_large_to_list_is_refused_before_listing(monkeypatch, capsys):
    def no_listing(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(cyclat.zmod, "product", no_listing)
    rc, out, err = run_cli(capsys, "module", "build", "cyclicR(2,20)", "--p", "5")
    assert rc == 65
    assert out == ""
    assert f"order {2 ** 100}" in err
    assert f"bound {cyclat.zmod.MAX_ENUMERATION}" in err


def test_strand_window_over_budget_is_refused_before_building(monkeypatch, capsys):
    def no_building(*args, **kwargs):
        raise AssertionError("strand graph built")

    monkeypatch.setattr(cyclat.ktheory, "MAX_WINDOW", 8)
    monkeypatch.setattr(cyclat.cli, "build_strand_graph", no_building)
    rc, out, err = run_cli(capsys, "graph", "ktheory", "--strand", str(10**9), "--depth", "2")
    assert rc == 65
    assert out == ""
    assert f"window of {2 * 10**9 + 1} vertices" in err
    assert "bound 8" in err


@pytest.mark.parametrize(
    "argv,size",
    [
        (("graph", "build", "--strand", "4"), 9),  # build's largest window is depth 2
        (("graph", "dot", "--strand", "3", "--depth", "3"), 10),
        (("graph", "stability", "--strand", "3", "--depth", "2"), 10),  # stability reaches depth 3
        (("graph", "verify", "--file", str(DATA / "group_z2.json"), "--depth", "3"), 13),
    ],
)
def test_every_graph_command_checks_its_largest_window(monkeypatch, capsys, argv, size):
    monkeypatch.setattr(cyclat.ktheory, "MAX_WINDOW", size - 1)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (65, "")
    assert f"window of {size} vertices is too large (bound {size - 1})" in err
    monkeypatch.setattr(cyclat.ktheory, "MAX_WINDOW", size)
    assert run_cli(capsys, *argv)[0] in (0, 1)


def test_strand_file_over_budget_is_refused(monkeypatch, capsys, tmp_path):
    path = tmp_path / "strand.json"
    path.write_text(json.dumps({"kind": "strand", "m": 4}), encoding="utf-8")
    monkeypatch.setattr(cyclat.ktheory, "MAX_WINDOW", 8)
    rc, _, err = run_cli(capsys, "graph", "ktheory", "--file", str(path), "--depth", "2")
    assert rc == 65
    assert "window of 9 vertices" in err


def test_exhausted_search_has_its_own_exit_code(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise cyclat.SearchExhausted("no invariant basis found", attempts=30, k=4)

    monkeypatch.setattr(cyclat.cli, "find_invariant_basis", exhausted)
    rc, out, err = run_cli(capsys, "module", "invariant-basis", "cyclicR(2,1)", "--p", "2")
    assert rc == 75
    assert out == ""
    assert "search exhausted after 30 attempt(s), k reached 4" in err
    assert "unexpected error" not in err


def test_module_invariant_basis_text(capsys):
    rc, out, _ = run_cli(capsys, "module", "invariant-basis", "cyclicR(2,1)", "--p", "2")
    assert rc == 0
    assert "summary: 1 free orbit(s) + 2 fixed" in out
    assert "rank: 4" in out


def test_module_invariant_basis_structured_golden(capsys):
    rc, out, _ = run_cli(
        capsys,
        "module",
        "invariant-basis",
        "cyclicR(2,1)",
        "--p",
        "2",
        "--format",
        "structured",
    )
    assert rc == 0
    assert out == golden("invariant_basis_cyclicR21_p2.json")


def test_module_invariant_basis_three_leaves_golden(capsys):
    # 24 elements: the constructive basis of a sum with leaves on both sides
    # of a free one, so each of its cross-vector families is printed
    spec = "triv(2)+cyclicR(2,1)+triv(3)"
    rc, out, _ = run_cli(capsys, "module", "invariant-basis", spec, "--p", "2")
    assert rc == 0
    assert out == golden("invariant_basis_triv2_cyclicR21_triv3_p2.txt")


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_module_invariant_basis_builds_only_the_format_asked_for(fmt):
    argv = ["module", "invariant-basis", "triv(2)+cyclicR(2,1)", "--p", "2", "--format", fmt]
    rep, rc = cyclat.cli.cmd_module(cyclat.cli._build_parser().parse_args(argv))
    assert rc == 0
    if fmt == "text":
        assert rep.data == {"command": "module-invariant-basis"}
        assert "orbit[1][1]: (0, 0, -1, 0, -1, 0, 1, 0)" in rep.lines
    else:
        assert rep.lines == []
        assert rep.data["orbit_blocks"][1][1] == [0, 0, -1, 0, -1, 0, 1, 0]


def test_module_check_noncyclotomic_true(capsys):
    rc, out, _ = run_cli(capsys, "module", "check-noncyc", "triv(4)", "--p", "2")
    assert rc == 0
    assert "noncyclotomic: true" in out


def test_module_spec_from_file(tmp_path, capsys):
    spec_file = tmp_path / "m.spec"
    spec_file.write_text("cyclicR(2,1) + triv(3)\n", encoding="utf-8")
    rc, out, _ = run_cli(capsys, "module", "build", f"@{spec_file}", "--p", "2")
    assert rc == 0
    assert "order: 12" in out


def test_module_spec_file_missing(capsys):
    rc, _, err = run_cli(capsys, "module", "build", "@/nonexistent/m.spec", "--p", "2")
    assert rc == 64
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# inclusion


def test_inclusion_check_canonical_counterexample(capsys):
    rc, out, _ = run_cli(
        capsys, "inclusion", "check", "cyclicR(2,2)", "--sub", "t", "--p", "2"
    )
    assert rc == 1
    assert "kernel intersection identity: true" in out
    assert "twist condition: false" in out
    assert "impurity witness lam: 1 + x" in out


def test_inclusion_check_full_submodule_true(capsys):
    rc, out, _ = run_cli(
        capsys, "inclusion", "check", "cyclicR(2,2)", "--sub", "full", "--p", "2"
    )
    assert rc == 0
    assert "twist condition: true" in out


def test_inclusion_check_zero_submodule_true(capsys):
    rc, out, _ = run_cli(
        capsys, "inclusion", "check", "cyclicR(2,2)", "--sub", "zero", "--p", "2"
    )
    assert rc == 0
    assert "submodule: zero (index 1 of 16)" in out


def test_inclusion_check_explicit_generators(capsys):
    rc, out, _ = run_cli(
        capsys,
        "inclusion",
        "check",
        "cyclicR(2,2)",
        "--sub",
        "gens",
        "--gens",
        "2,0;0,2",
        "--p",
        "2",
    )
    assert rc == 0
    assert "submodule: gens (index 4 of 16)" in out
    assert "twist condition: true" in out


def test_inclusion_gens_requires_vectors(capsys):
    rc, _, err = run_cli(
        capsys, "inclusion", "check", "cyclicR(2,2)", "--sub", "gens", "--p", "2"
    )
    assert rc == 64


def test_inclusion_gens_wrong_length(capsys):
    rc, _, err = run_cli(
        capsys,
        "inclusion",
        "check",
        "cyclicR(2,2)",
        "--sub",
        "gens",
        "--gens",
        "2,0,0",
        "--p",
        "2",
    )
    assert rc == 64
    assert "length" in err


def test_inclusion_gens_with_no_vector_is_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, "inclusion", "check", "cyclicR(2,1)", "--sub", "gens", "--gens", ";", "--p", "2"
    )
    assert rc == 64
    assert "--gens needs at least one vector" in err


def test_inclusion_gens_skips_empty_parts(capsys):
    rc, out, _ = run_cli(
        capsys, "inclusion", "check", "cyclicR(2,1)", "--sub", "gens", "--gens", "1,0;;0,1", "--p", "2"
    )
    assert rc == 0
    assert "submodule: gens (index 4 of 4)" in out


def test_inclusion_witness_golden(capsys):
    rc, out, _ = run_cli(
        capsys, "inclusion", "witness", "cyclicR(2,2)", "--sub", "t", "--p", "2"
    )
    assert rc == 1
    assert out == golden("inclusion_witness_r4.txt")


def test_inclusion_witness_absent_when_condition_holds(capsys):
    rc, out, _ = run_cli(
        capsys, "inclusion", "witness", "cyclicR(2,1)", "--sub", "full", "--p", "2"
    )
    assert rc == 0
    assert "no impurity witness exists" in out


def test_inclusion_diagram_positive(capsys):
    rc, out, _ = run_cli(
        capsys, "inclusion", "diagram", "cyclicR(2,1)", "--sub", "full", "--p", "2"
    )
    assert rc == 0
    assert "kernel projection verified" in out


def test_inclusion_diagram_refusal(capsys):
    rc, out, _ = run_cli(
        capsys, "inclusion", "diagram", "cyclicR(2,2)", "--sub", "t", "--p", "2"
    )
    assert rc == 1
    assert "no commuting inclusion diagram" in out
    assert "impurity witness lam: 1 + x" in out


# ---------------------------------------------------------------------------
# graph


def test_graph_build_strand_text(capsys):
    rc, out, _ = run_cli(capsys, "graph", "build", "--strand", "4", "--cyclic", "--p", "3")
    assert rc == 0
    assert "core: v" in out
    assert "automorphism order: 3" in out
    assert "irreducible: true" in out


def test_graph_needs_source(capsys):
    rc, _, err = run_cli(capsys, "graph", "build")
    assert rc == 64


def test_graph_rejects_both_sources(capsys):
    rc, _, err = run_cli(
        capsys, "graph", "build", "--strand", "2", "--file", str(DATA / "group_z5.json")
    )
    assert rc == 64


def test_graph_strand_zero_is_data_error(capsys):
    rc, _, err = run_cli(capsys, "graph", "ktheory", "--strand", "0")
    assert rc == 65


def test_graph_ktheory_text_headline(capsys):
    rc, out, _ = run_cli(capsys, "graph", "ktheory", "--strand", "4", "--p", "3")
    assert rc == 0
    assert "K = (0, Z^3)" in out


def test_graph_ktheory_free_rank_one_headline(capsys):
    rc, out, _ = run_cli(capsys, "graph", "ktheory", "--strand", "1")
    assert rc == 0
    assert "K = (0, Z)" in out


def test_graph_ktheory_structured_golden(capsys):
    rc, out, _ = run_cli(
        capsys, "graph", "ktheory", "--strand", "4", "--p", "3", "--format", "structured"
    )
    assert rc == 0
    assert out == golden("ktheory_strand4_p3.json")


def test_graph_verify_group_golden(capsys):
    rc, out, _ = run_cli(
        capsys, "graph", "verify", "--file", str(DATA / "group_z5.json"), "--p", "2"
    )
    assert rc == 0
    assert out == golden("verify_z5.txt")
    assert "K0 = Z/5, K1 = 0, map OK" in out


def test_graph_group_file_p_mismatch_is_usage_error(capsys):
    rc, out, err = run_cli(
        capsys, "graph", "verify", "--file", str(DATA / "group_z5.json"), "--p", "3"
    )
    assert rc == 64
    assert out == ""
    assert "--p 3" in err and "p = 2" in err


def test_graph_group_file_nonprime_p_is_refused_as_not_prime(capsys):
    rc, out, err = run_cli(
        capsys, "graph", "verify", "--file", str(DATA / "group_z5.json"), "--p", "4"
    )
    assert (rc, out) == (64, "")
    assert err == "cyclat: usage error: --p must be prime, got 4\n"


def test_graph_group_file_p_omitted_uses_file(capsys):
    rc, out, _ = run_cli(capsys, "graph", "verify", "--file", str(DATA / "group_z5.json"))
    assert rc == 0
    assert out == golden("verify_z5.txt")


def test_graph_strand_accepts_any_p(capsys):
    rc3, out3, _ = run_cli(capsys, "graph", "ktheory", "--strand", "4", "--p", "3")
    rc7, out7, _ = run_cli(capsys, "graph", "ktheory", "--strand", "4", "--p", "7")
    assert rc3 == rc7 == 0
    assert out3 == out7


def test_graph_verify_requires_group_file(capsys):
    rc, _, err = run_cli(capsys, "graph", "verify", "--strand", "4")
    assert rc == 64


def test_graph_file_not_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all", encoding="utf-8")
    rc, _, err = run_cli(capsys, "graph", "build", "--file", str(bad))
    assert rc == 64


def test_graph_unknown_kind(tmp_path, capsys):
    bad = tmp_path / "odd.json"
    bad.write_text(json.dumps({"kind": "mystery"}), encoding="utf-8")
    rc, _, err = run_cli(capsys, "graph", "build", "--file", str(bad))
    assert rc == 64


def test_graph_file_missing(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "graph", "ktheory", "--file", str(tmp_path / "absent.json"))
    assert rc == 64
    assert "cannot read" in err


@pytest.mark.parametrize(
    "data, message",
    [([1, 2], "graph description must be a JSON object"), ({"kind": "strand"}, "bad strand description")],
)
def test_graph_file_malformed_description(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    rc, _, err = run_cli(capsys, "graph", "ktheory", "--file", str(bad))
    assert rc == 64
    assert message in err


def test_graph_missing_field_is_usage_error(tmp_path, capsys):
    data = json.loads((DATA / "group_z5.json").read_text(encoding="utf-8"))
    del data["pi0"]
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    rc, _, err = run_cli(capsys, "graph", "build", "--file", str(bad))
    assert rc == 64


def test_graph_tampered_relations_are_data_error(tmp_path, capsys):
    data = json.loads((DATA / "group_z5.json").read_text(encoding="utf-8"))
    data["B"][4] = data["B"][3]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    rc, _, err = run_cli(capsys, "graph", "build", "--file", str(bad))
    assert rc == 65


def test_graph_strand_json_matches_flag(tmp_path, capsys):
    desc = tmp_path / "strand.json"
    desc.write_text(json.dumps({"kind": "strand", "m": 4, "cyclic": True}), encoding="utf-8")
    rc1, out1, _ = run_cli(capsys, "graph", "build", "--file", str(desc), "--p", "3")
    rc2, out2, _ = run_cli(capsys, "graph", "build", "--strand", "4", "--cyclic", "--p", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_graph_stability_stable(capsys):
    rc, out, _ = run_cli(
        capsys, "graph", "stability", "--file", str(DATA / "group_z2.json"), "--depth", "4"
    )
    assert rc == 0
    assert "stable: true" in out


def test_graph_dot_cli(capsys):
    rc, out, _ = run_cli(capsys, "graph", "dot", "--strand", "1", "--depth", "2")
    assert rc == 0
    assert out.startswith("digraph gadget {")
    assert out.endswith("}\n")


def test_graph_dot_text_and_structured_carry_to_dot(capsys):
    want = to_dot(build_strand_graph(3), 2)
    argv = ("graph", "dot", "--strand", "3", "--depth", "2")
    assert run_cli(capsys, *argv) == (0, want, "")
    rc, out, err = run_cli(capsys, *argv, "--format", "structured")
    assert (rc, err) == (0, "")
    assert json.loads(out)["dot"] == want


def test_group_graph_dot_depth_one_golden():
    text = to_dot(build_group_graph(z2_degenerate()), 1)
    assert text == golden("group_z2_depth1.dot")


# ---------------------------------------------------------------------------
# structured output discipline


def test_structured_output_deterministic(capsys):
    args = (
        "graph",
        "verify",
        "--file",
        str(DATA / "group_z5.json"),
        "--p",
        "2",
        "--format",
        "structured",
    )
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_structured_verify_payload(capsys):
    _, out, _ = run_cli(
        capsys,
        "graph",
        "verify",
        "--file",
        str(DATA / "group_z5.json"),
        "--p",
        "2",
        "--format",
        "structured",
    )
    data = json.loads(out)
    assert data["command"] == "graph-verify"
    assert data["verified"] is True
    assert data["k0"] == {"torsion": [5], "free_rank": 0}
    assert len(data["checks"]) == 11


Z2, Z5 = str(DATA / "group_z2.json"), str(DATA / "group_z5.json")

# (golden file, argv without --format structured, exit code): one or two
# invocations of each action whose structured document no other test pins
STRUCTURED_GOLDENS = [
    ("module_build_cyclicR21_triv3_p2.json", ("module", "build", "cyclicR(2,1)+triv(3)", "--p", "2"), 0),
    ("module_present_cyclicR21_p2.json", ("module", "present", "cyclicR(2,1)", "--p", "2"), 0),
    ("module_check_noncyc_triv4_p2.json", ("module", "check-noncyc", "triv(4)", "--p", "2"), 0),
    ("inclusion_check_r4_t.json", ("inclusion", "check", "cyclicR(2,2)", "--p", "2"), 1),
    ("inclusion_check_r4_full.json", ("inclusion", "check", "cyclicR(2,2)", "--sub", "full", "--p", "2"), 0),
    ("inclusion_witness_r4_t.json", ("inclusion", "witness", "cyclicR(2,2)", "--p", "2"), 1),
    ("inclusion_witness_r2_full.json", ("inclusion", "witness", "cyclicR(2,1)", "--sub", "full", "--p", "2"), 0),
    ("inclusion_diagram_r2_full.json", ("inclusion", "diagram", "cyclicR(2,1)", "--sub", "full", "--p", "2"), 0),
    ("inclusion_diagram_r4_t.json", ("inclusion", "diagram", "cyclicR(2,2)", "--p", "2"), 1),
    ("graph_build_strand4_cyclic_p3.json", ("graph", "build", "--strand", "4", "--cyclic", "--p", "3"), 0),
    ("graph_verify_z5.json", ("graph", "verify", "--file", Z5), 0),
    ("graph_stability_z2_depth4.json", ("graph", "stability", "--file", Z2, "--depth", "4"), 0),
    ("graph_dot_strand2_depth2.json", ("graph", "dot", "--strand", "2", "--depth", "2"), 0),
]


@pytest.mark.parametrize("name,argv,rc", STRUCTURED_GOLDENS, ids=[g[0] for g in STRUCTURED_GOLDENS])
def test_structured_output_golden(capsys, name, argv, rc):
    assert run_cli(capsys, *argv, "--format", "structured") == (rc, golden(name), "")


def test_check_noncyc_witness_structured_golden(monkeypatch, capsys):
    # presentation kernels are noncyclotomic, so only a planted witness
    # reaches the output of the witness case
    monkeypatch.setattr(
        cyclat.presentation.EquivariantLattice, "noncyclotomic_witness", lambda self: (1, -1, 0, 0)
    )
    argv = ("module", "check-noncyc", "cyclicR(2,1)", "--p", "2", "--format", "structured")
    assert run_cli(capsys, *argv) == (1, golden("module_check_noncyc_witness_cyclicR21_p2.json"), "")


def test_structured_keys_sorted(capsys):
    _, out, _ = run_cli(
        capsys, "module", "build", "cyclicR(2,1)", "--p", "2", "--format", "structured"
    )
    keys = [line.split('"')[1] for line in out.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)
