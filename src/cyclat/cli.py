"""Command line front end for the workbench.

Four command groups:

    ring-identities        prime decomposition identities in Z[x]/(x^p - 1)
    module   ACTION SPEC   finite-module construction and invariant bases
    inclusion ACTION SPEC  twisted-kernel conditions for a submodule pair
    graph    ACTION        gadget graphs, K groups, group-graph verification

Every command accepts the shared flags --p, --depth, --seed, --kmax and
--format.  argparse holds their defaults and the --format choices; main
checks the rest before any handler runs: --p prime (2 when omitted, except
for graph commands, where a group file supplies its own p), --depth at
least 2 and --kmax nonnegative.  Handlers read the parsed namespace.  With
--format structured the output is a single JSON document, byte-identical
across runs with the same invocation and seed.

The argument parser is built on the first call of main and reused by every
later call in the same process; parsing leaves it unchanged.  _HANDLERS maps
each command group to its module-level cmd_* function, and the benchmark's
per-layer tracer wraps those names, so they stay.

Exit codes: 0 success (and checked property true), 1 checked property
false, 64 usage or parse error, 65 bad mathematical input, 75 randomized
search exhausted, 2 internal invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Optional, Sequence

from .cyclo_ring import decompose_prime, is_prime
from .errors import (
    InternalInvariantError,
    ParseError,
    PreconditionError,
    SearchExhausted,
)
from .graphkit import (
    GadgetGraph,
    GroupGraphSpec,
    build_group_graph,
    build_strand_graph,
    is_irreducible,
    strand_window_size,
    to_dot,
    validate_automorphism,
)
from .intlinalg import IntMatrix, Lattice, QuotientInvariants
from .ktheory import (
    check_window,
    compute_k,
    induced_action,
    stabilization_check,
    verify_group_graph,
)
from .lattice_props import (
    InclusionPair,
    check_t_intersection,
    find_impurity_witness,
    inclusion_diagram,
)
from .presentation import UNPRESENTABLE, _dense, build_aug, find_invariant_basis
from .zmod import FinMod, build, check_listable, parse_modspec, spec_order, spec_rank

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SEARCH_EXHAUSTED = 75
EXIT_INTERNAL = 2


class Report:
    """Collects one command's output in the format the invocation asked for.

    Text lines are kept only for text output and keys only for structured
    output; a handler whose output is large builds only the form that
    `structured` says is wanted.  Each cmd_* handler returns its Report with
    the exit code, and main emits it.
    """

    def __init__(self, command: str, fmt: str) -> None:
        self.structured = fmt == "structured"
        self.lines: list[str] = []
        self.data: dict = {"command": command}

    def say(self, line: str) -> None:
        if not self.structured:
            self.lines.append(line)

    def put(self, key: str, value) -> None:
        if self.structured:
            self.data[key] = value

    def fact(self, label: str, value) -> None:
        """The line 'label: value' (booleans in lower case) and the key label
        with '_' for each space."""
        self.say(f"{label}: {str(value).lower() if isinstance(value, bool) else value}")
        self.put(label.replace(" ", "_"), value)

    def emit(self) -> None:
        if self.structured:
            # the encoder's pieces go out in batches of 65,536: the whole
            # document as one string would cost far more than the data
            pieces = json.JSONEncoder(sort_keys=True, indent=2).iterencode(self.data)
            while batch := list(itertools.islice(pieces, 1 << 16)):
                sys.stdout.write("".join(batch))
            sys.stdout.write("\n")
        else:
            for line in self.lines:
                sys.stdout.write(line + "\n")


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as ParseError."""

    def error(self, message: str) -> None:
        raise ParseError(message)


def _read_spec_arg(raw: str) -> str:
    """A SPEC argument starting with @ names a file holding the spec text."""
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError as exc:
            raise ParseError(f"cannot read spec file {raw[1:]}: {exc}")
    return raw


def _vec_text(v: Sequence[int]) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _invariants_json(inv: QuotientInvariants) -> dict:
    return {"torsion": list(inv.torsion), "free_rank": inv.free_rank}


def _matrix_json(m: IntMatrix) -> list:
    return [list(row) for row in m.entries()]


# ---------------------------------------------------------------------------
# ring-identities


def cmd_ring_identities(args) -> tuple[Report, int]:
    ids = decompose_prime(args.p)
    rep = Report("ring-identities", args.fmt)
    rep.say(f"p = {args.p}")
    rep.say(f"core: {ids.core}")
    rep.fact("core at 1", sum(ids.core.coeffs))
    rep.say(f"twist_coeff: {ids.twist_coeff}")
    rep.say(f"norm_coeff: {ids.norm_coeff}")
    ok = all(ids.twist_power_identity_holds(k) for k in range(1, args.kmax + 1))
    rep.say(f"power identities up to k = {args.kmax}: {'ok' if ok else 'FAILED'}")
    rep.put("p", args.p)
    rep.put("core", list(ids.core.coeffs))
    rep.put("twist_coeff", list(ids.twist_coeff.coeffs))
    rep.put("norm_coeff", list(ids.norm_coeff.coeffs))
    rep.put("substitution_steps", len(ids.steps))
    rep.put("power_identities_ok", ok)
    return rep, EXIT_OK if ok else EXIT_FALSE


# ---------------------------------------------------------------------------
# module


def _orbit_summary(m: FinMod) -> tuple[int, int]:
    orbits = m.orbits()
    fixed = sum(1 for orb in orbits if len(orb) == 1)
    return len(orbits) - fixed, fixed


def cmd_module(args) -> tuple[Report, int]:
    shape = parse_modspec(args.spec)
    order = spec_order(shape, args.p)
    # every action lists the elements: refuse an infinite or oversize module before any matrix
    if order is None and args.action != "build":
        raise PreconditionError(UNPRESENTABLE)
    check_listable(order)
    m = build(shape, args.p)
    rep = Report(f"module-{args.action}", args.fmt)
    rep.put("p", args.p)
    rep.put("spec", args.spec)

    if args.action == "build":
        free, fixed = _orbit_summary(m)
        inv = m.invariants()
        rep.say(f"module: {args.spec} over p = {args.p}")
        rep.fact("structure", m.describe())
        rep.fact("order", m.order())
        rep.say(f"element orbits: {free} free, {fixed} fixed")
        rep.put("invariants", _invariants_json(inv))
        rep.put("orbits_free", free)
        rep.put("orbits_fixed", fixed)
        return rep, EXIT_OK

    pres = build_aug(m)
    eq = pres.kernel_pair()

    if args.action == "present":
        rep.say(f"presentation of {args.spec} over p = {args.p}")
        rep.fact("elements", pres.size)
        rep.fact("kernel rank", eq.rank)
        rep.fact("noncyclotomic", eq.is_noncyclotomic())
        return rep, EXIT_OK

    if args.action == "invariant-basis":
        k, basis = find_invariant_basis(
            eq, allow_stabilization=True, k_max=args.kmax, seed=args.seed
        )
        rep.say(f"invariant basis for {args.spec} over p = {args.p}")
        rep.fact("stabilization steps", k)
        rep.fact("rank", basis.rank)
        rep.fact("summary", basis.summary())
        # the vectors are the bulk of the output: each is made dense once, in
        # the one form asked for
        n = basis.ambient.ambient
        if rep.structured:
            rep.put("orbit_blocks", [[list(_dense(n, c)) for c in b] for b in basis.orbit_columns])
            rep.put("fixed_vectors", [list(_dense(n, c)) for c in basis.fixed_columns])
            return rep, EXIT_OK
        for i, block in enumerate(basis.orbit_columns):
            for j, col in enumerate(block):
                rep.say(f"orbit[{i}][{j}]: {_vec_text(_dense(n, col))}")
        for i, col in enumerate(basis.fixed_columns):
            rep.say(f"fixed[{i}]: {_vec_text(_dense(n, col))}")
        return rep, EXIT_OK

    coords = eq.noncyclotomic_witness()  # check-noncyc
    ok = coords is None
    rep.fact("noncyclotomic", ok)
    if not ok:
        ambient = eq.lattice.basis.apply(coords)
        rep.say(f"witness in norm kernel outside twist image: {_vec_text(coords)}")
        rep.say(f"witness in ambient coordinates: {_vec_text(ambient)}")
        rep.put("witness_coords", list(coords))
        rep.put("witness_ambient", list(ambient))
    return rep, EXIT_OK if ok else EXIT_FALSE


# ---------------------------------------------------------------------------
# inclusion


def _parse_gens(raw: str, width: int) -> list[tuple[int, ...]]:
    vectors = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            vec = tuple(int(x) for x in part.split(","))
        except ValueError:
            raise ParseError(f"bad generator vector {part!r}")
        if len(vec) != width:
            raise ParseError(
                f"generator vector {part!r} has length {len(vec)}, expected {width}"
            )
        vectors.append(vec)
    if not vectors:
        raise ParseError("--gens needs at least one vector")
    return vectors


def _build_pair(args) -> InclusionPair:
    shape = parse_modspec(args.spec)
    order = spec_order(shape, args.p)
    if args.sub == "gens":
        if not args.gens:
            raise ParseError("--sub gens requires --gens")
        gens = _parse_gens(args.gens, spec_rank(shape, args.p))
    # InclusionPair presents M first: refuse an infinite or oversize M before any matrix
    if order is None:
        raise PreconditionError(UNPRESENTABLE)
    check_listable(order)
    m = build(shape, args.p)
    if args.sub == "t":
        span = m.t_image()
    elif args.sub == "full":
        span = Lattice.full(m.r)
    elif args.sub == "zero":
        span = m.rel
    else:  # gens
        span = m.invariant_span(gens)
    return InclusionPair(m, m.submodule_from_lattice(span))


def _witness(rep: Report, verdict) -> dict:
    """Say an impurity witness; return it for the structured form."""
    rep.say(f"impurity witness xi: {_vec_text(verdict.xi)}")
    rep.say(f"impurity witness lam: {verdict.lam}")
    return {"xi": list(verdict.xi), "lam": list(verdict.lam.coeffs)}


def cmd_inclusion(args) -> tuple[Report, int]:
    pair = _build_pair(args)
    rep = Report(f"inclusion-{args.action}", args.fmt)
    rep.put("p", args.p)
    rep.put("spec", args.spec)
    rep.put("sub", args.sub)
    rep.say(f"module: {args.spec} over p = {args.p}")
    rep.say(f"submodule: {args.sub} (index {pair.sub.module.order()} of {pair.M.order()})")

    if args.action == "check":
        inter = check_t_intersection(pair)
        verdict = find_impurity_witness(pair)
        cond = verdict is None
        rep.say(f"kernel intersection identity: {str(bool(inter)).lower()}")
        rep.put("kernel_intersection", bool(inter))
        rep.fact("twist condition", cond)
        if not cond:
            for key, value in _witness(rep, verdict).items():
                rep.put(f"witness_{key}", value)
        return rep, EXIT_OK if cond else EXIT_FALSE

    if args.action == "witness":
        verdict = find_impurity_witness(pair)
        rep.fact("twist condition", verdict is None)
        if verdict is None:
            rep.say("no impurity witness exists")
            rep.put("witness", None)
            return rep, EXIT_OK
        rep.put("witness", _witness(rep, verdict))
        return rep, EXIT_FALSE

    report = inclusion_diagram(pair, k_max=args.kmax, seed=args.seed)  # diagram
    if not report.condition_holds:
        rep.say("twist condition: false, no commuting inclusion diagram")
        rep.put("twist_condition", False)
        rep.put("witness", _witness(rep, report.impurity))
        return rep, EXIT_FALSE
    diagram = report.diagram
    rep.fact("twist condition", True)
    rep.say(f"stabilization steps: sub {diagram.row0.k}, module {diagram.row.k}")
    rep.say(
        f"column map: {diagram.column_map.rows} x {diagram.column_map.cols} equivariant"
    )
    rep.say("kernel projection verified")
    rep.put("stabilization_steps", {"sub": diagram.row0.k, "module": diagram.row.k})
    rep.put("column_map", _matrix_json(diagram.column_map))
    rep.put("kernel_projection", _matrix_json(diagram.kernel_projection))
    return rep, EXIT_OK


# ---------------------------------------------------------------------------
# graph


def _group_spec_from_json(data: dict) -> GroupGraphSpec:
    try:
        p = int(data["p"])
        group = data["group"]
        rank = int(group["rank"])
        rel_vectors = [tuple(int(x) for x in v) for v in group.get("rel", [])]
        aut_rows = [[int(x) for x in row] for row in group["aut"]]
        orbits = tuple(tuple(str(a) for a in orb) for orb in data["orbits"])
        pi0_map = data["pi0"]
        bvecs = tuple(tuple(int(x) for x in v) for v in data.get("B", []))
        labels = tuple(a for orb in orbits for a in orb)
        pi0 = tuple((a, tuple(int(x) for x in pi0_map[a])) for a in labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad group graph description: {exc!r}")
    return GroupGraphSpec(
        p=p,
        group_rank=rank,
        group_rel=Lattice.spanned_by(rel_vectors, rank),
        group_aut=IntMatrix(aut_rows),
        orbits=orbits,
        pi0=pi0,
        bvecs=bvecs,
    )


def _stability_depths(args) -> tuple[int, ...]:
    return tuple(range(2, max(args.depth, 3) + 1))


def _largest_depth(args) -> int:
    """Depth of the largest window a graph action builds."""
    if args.action == "build":
        return 2  # is_irreducible's window
    if args.action == "stability":
        return _stability_depths(args)[-1]
    return args.depth


def _load_graph(args, depth: int) -> tuple[GadgetGraph, Optional[GroupGraphSpec]]:
    """The graph of --strand or --file; refuses one whose depth window exceeds
    ktheory.MAX_WINDOW, a strand graph before it is built."""
    if args.strand is not None and args.file is not None:
        raise ParseError("give either --strand or --file, not both")
    if args.strand is not None:
        check_window(strand_window_size(args.strand, depth), depth)
        return build_strand_graph(args.strand, cyclic=args.cyclic), None
    if args.file is None:
        raise ParseError("graph commands need --strand M or --file PATH")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {args.file}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.file} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParseError("graph description must be a JSON object")
    kind = data.get("kind")
    if kind == "strand":
        try:
            m = int(data["m"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad strand description: {exc!r}")
        check_window(strand_window_size(m, depth), depth)
        return build_strand_graph(m, cyclic=bool(data.get("cyclic", False))), None
    if kind == "group":
        spec = _group_spec_from_json(data)
        if args.p is not None and args.p != spec.p:
            raise ParseError(f"--p {args.p} does not match p = {spec.p} in {args.file}")
        graph = build_group_graph(spec)
        check_window(graph.window_size(depth), depth)
        return graph, spec
    raise ParseError(f"unknown graph kind {kind!r}")


def _describe_k(kr) -> str:
    k1 = QuotientInvariants((), kr.k1_rank)
    return f"K = ({kr.invariants.describe()}, {k1.describe()})"


def cmd_graph(args) -> tuple[Report, int]:
    graph, spec = _load_graph(args, _largest_depth(args))
    rep = Report(f"graph-{args.action}", args.fmt)

    if args.action == "build":
        aut = validate_automorphism(graph)
        irreducible = is_irreducible(graph)
        rep.say(
            f"graph: {len(graph.vertices)} core vertices, "
            f"{len(graph.rays)} ray families"
        )
        rep.say(f"core: {', '.join(graph.vertices)}")
        rep.say(f"emitter: {graph.emitter if graph.emitter else 'none'}")
        for fam in graph.rays:
            rep.say(f"ray {fam.name}: {fam.orientation} at {fam.base}")
        rep.fact("automorphism order", aut.order)
        rep.fact("irreducible", irreducible)
        rep.put("core_vertices", list(graph.vertices))
        rep.put("emitter", graph.emitter)
        rep.put(
            "rays",
            [
                {"name": f.name, "base": f.base, "orientation": f.orientation}
                for f in graph.rays
            ],
        )
        return rep, EXIT_OK

    if args.action == "ktheory":
        kr = compute_k(graph, args.depth)
        kr = induced_action(graph, kr)
        rep.fact("depth", args.depth)
        rep.say(_describe_k(kr))
        rep.say(f"K0 invariant factors: {kr.invariants.describe()}")
        rep.say(f"K1 rank: {kr.k1_rank}")
        for name in graph.vertices:
            rep.say(f"class[{name}] = {_vec_text(kr.vertex_classes[name])}")
        rep.put("k0", _invariants_json(kr.invariants))
        rep.put("k1_rank", kr.k1_rank)
        rep.put(
            "vertex_classes",
            {name: list(kr.vertex_classes[name]) for name in graph.vertices},
        )
        rep.put("induced_k0", _matrix_json(kr.induced_k0))
        rep.put("induced_k1", _matrix_json(kr.induced_k1))
        return rep, EXIT_OK

    if args.action == "verify":
        if spec is None:
            raise ParseError("graph verify needs a group graph file (--file)")
        result = verify_group_graph(graph, spec, depth=args.depth)
        kr = result.kresult
        k1 = QuotientInvariants((), kr.k1_rank)
        map_ok = result.check("k0-explicit-isomorphism").passed
        rep.say(
            f"K0 = {kr.invariants.describe()}, K1 = {k1.describe()}, "
            f"map {'OK' if map_ok else 'FAIL'}"
        )
        for chk in result.checks:
            status = "PASS" if chk.passed else "FAIL"
            rep.say(f"check {status} {chk.name}: {chk.detail}")
        rep.fact("verified", result.passed)
        rep.put("k0", _invariants_json(kr.invariants))
        rep.put("k1_rank", kr.k1_rank)
        rep.put(
            "checks",
            [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in result.checks
            ],
        )
        return rep, EXIT_OK if result.passed else EXIT_FALSE

    if args.action == "stability":
        tr = stabilization_check(graph, _stability_depths(args))
        rep.say(f"depths: {', '.join(str(d) for d in tr.depths)}")
        for d, inv, k1 in zip(tr.depths, tr.invariants, tr.k1_ranks):
            rep.say(f"depth {d}: K0 {inv.describe()}, K1 rank {k1}")
        rep.fact("stable", tr.stable)
        rep.put("depths", list(tr.depths))
        rep.put("k0_by_depth", [_invariants_json(i) for i in tr.invariants])
        rep.put("k1_ranks", list(tr.k1_ranks))
        return rep, EXIT_OK if tr.stable else EXIT_FALSE

    text = to_dot(graph, args.depth)  # dot
    for line in text[:-1].split("\n"):  # to_dot ends every line with a newline
        rep.say(line)
    rep.put("depth", args.depth)
    rep.put("dot", text)
    return rep, EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="cyclat", description=__doc__ and __doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, help="odd or even prime (default 2)")
    common.add_argument("--depth", type=int, default=3, help="window depth (default 3)")
    common.add_argument("--seed", type=int, default=0, help="search seed (default 0)")
    common.add_argument("--kmax", type=int, default=4, help="stabilization cap (default 4)")
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "structured"),
        default="text",
        help="output format (default text)",
    )

    sub = parser.add_subparsers(dest="group", required=True)

    sub.add_parser(
        "ring-identities",
        parents=[common],
        help="prime decomposition identities for p",
    )

    p_mod = sub.add_parser("module", parents=[common], help="finite module commands")
    p_mod.add_argument(
        "action", choices=("build", "present", "invariant-basis", "check-noncyc")
    )
    p_mod.add_argument("spec", help="module spec text, or @FILE")

    p_inc = sub.add_parser("inclusion", parents=[common], help="submodule pair commands")
    p_inc.add_argument("action", choices=("check", "witness", "diagram"))
    p_inc.add_argument("spec", help="module spec text, or @FILE")
    p_inc.add_argument(
        "--sub",
        choices=("t", "full", "zero", "gens"),
        default="t",
        help="submodule selector (default t, the twist image)",
    )
    p_inc.add_argument(
        "--gens",
        help="generators for --sub gens, semicolon separated vectors like 2,0;0,1",
    )

    p_gr = sub.add_parser("graph", parents=[common], help="gadget graph commands")
    p_gr.add_argument(
        "action", choices=("build", "ktheory", "verify", "stability", "dot")
    )
    p_gr.add_argument("--file", help="JSON graph description")
    p_gr.add_argument("--strand", type=int, help="strand count for a strand graph")
    p_gr.add_argument(
        "--cyclic", action="store_true", help="rotate the strands cyclically"
    )

    return parser


_HANDLERS = {
    "ring-identities": cmd_ring_identities,
    "module": cmd_module,
    "inclusion": cmd_inclusion,
    "graph": cmd_graph,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.p is None and args.group != "graph":
            args.p = 2
        if args.p is not None and not is_prime(args.p):
            raise ParseError(f"--p must be prime, got {args.p}")
        if args.depth < 2:
            raise ParseError(f"--depth must be at least 2, got {args.depth}")
        if args.kmax < 0:
            raise ParseError(f"--kmax must be nonnegative, got {args.kmax}")
        if "spec" in args:
            args.spec = _read_spec_arg(args.spec)  # read an @FILE once per run
        rep, code = _HANDLERS[args.group](args)
        rep.emit()
        return code
    except ParseError as exc:
        sys.stderr.write(f"cyclat: usage error: {exc}\n")
        return EXIT_USAGE
    except PreconditionError as exc:
        sys.stderr.write(f"cyclat: bad input: {exc}\n")
        return EXIT_DATA
    except SearchExhausted as exc:
        sys.stderr.write(
            f"cyclat: search exhausted after {exc.attempts} attempt(s), k reached {exc.k}: {exc}\n"
        )
        return EXIT_SEARCH_EXHAUSTED
    except InternalInvariantError as exc:
        sys.stderr.write(f"cyclat: internal invariant failed: {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive catch-all
        sys.stderr.write(f"cyclat: unexpected error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
