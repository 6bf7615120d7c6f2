"""The functions the traced run wraps, the statistics each one records, and
the end-to-end metric each is predicted to move.

Every entry names a function by its module under ``cyclat`` and its
qualified name there.  The traced run reports ``<module>.<name>.calls`` and
``<module>.<name>.self_s`` for each entry (``calls`` only where ``self_s`` is
listed as absent), plus the extra statistics named in the entry.  The
``moves`` text is the prediction a later performance change is held to: the
layer metric should move the named end-to-end metric on the named workload,
and leave the others flat.
"""

from __future__ import annotations


def _bits(*mats) -> int:
    return max(
        (abs(x).bit_length() for m in mats for row in m.entries() for x in row),
        default=0,
    )


def _dim(*mats) -> int:
    return max(max(m.rows, m.cols) for m in mats)


# A collector gets (acc, args, result, exc) after each traced call, with exc
# set when the call raised, and updates the function's accumulator:
# `acc.top(key, v)` keeps a maximum and `acc.add(key, v)` a sum.


def _matmul(acc, args, result, exc):
    if exc is not None or result is NotImplemented:
        return
    a, b = args
    acc.top("max_dim", _dim(a, b))
    col_nnz = [0] * a.cols
    for row in a.entries():
        for j, x in enumerate(row):
            if x:
                col_nnz[j] += 1
    row_nnz = [sum(1 for x in row if x) for row in b.entries()]
    acc.add("nonzero_products", sum(c * r for c, r in zip(col_nnz, row_nnz)))
    acc.add("products", a.rows * a.cols * b.cols)


def _hnf(acc, args, result, exc):
    if exc is not None:
        return
    h, u = result
    acc.top("max_dim", _dim(args[0]))
    acc.top("max_bits", _bits(h, u))


def _snf(acc, args, result, exc):
    if exc is not None:
        return
    acc.top("max_dim", _dim(args[0]))
    acc.top("max_bits", _bits(result.u, result.v))


def _enumerate(acc, args, result, exc):
    if exc is None:
        acc.top("max_elements", len(result))


def _build_aug(acc, args, result, exc):
    if exc is None:
        acc.top("max_size", result.size)


def _find_invariant_basis(acc, args, result, exc):
    if exc is None:
        acc.top("max_k", result[0])
    elif type(exc).__name__ == "SearchExhausted":
        acc.add("exhausted", 1)


def _boundary_matrix(acc, args, result, exc):
    if exc is None:
        acc.top("max_dim", _dim(result.matrix))


# (module, qualified name, collector, reported statistics, predicted effect)
_TIMED = ("calls", "self_s")

LAYERS = [
    # -- intlinalg ------------------------------------------------------------
    # @ is 42% of the traced job time on modules and 64% on cli; on cli much
    # of it is the U @ A @ V certificate of snf and the conjugation in
    # induced_action, so graph commands move with @ as well
    ("intlinalg", "IntMatrix.__matmul__", _matmul,
     _TIMED + ("max_dim", "nonzero_frac"),
     "jobs_per_s and job_p50_ms on modules, job_tail_ms on cli"),
    ("intlinalg", "IntMatrix.pow", None, _TIMED,
     "jobs_per_s on modules, job_tail_ms on cli"),
    ("intlinalg", "hnf", _hnf, _TIMED + ("max_dim", "max_bits"),
     "jobs_per_s and job_p50_ms on modules, cli less"),
    ("intlinalg", "Lattice.__init__", None, _TIMED, "jobs_per_s on modules, cli less"),
    ("intlinalg", "Lattice.intersect", None, _TIMED, "jobs_per_s on modules, cli less"),
    ("intlinalg", "snf", _snf, _TIMED + ("max_dim", "max_bits"),
     "job_tail_ms on cli (strand-16 graph commands); modules through the greedy search"),
    ("intlinalg", "solve_columns", None, _TIMED, "modules and cli"),
    ("intlinalg", "kernel_basis", None, _TIMED, "modules and cli"),
    ("intlinalg", "inv_unimodular", None, _TIMED, "cli (graph ktheory); modules flat"),
    # -- cyclo_ring -----------------------------------------------------------
    ("cyclo_ring", "decompose_prime", None, _TIMED,
     "cli (ring-identities, impurity witnesses); modules flat"),
    ("cyclo_ring", "RingElt.__mul__", None, _TIMED,
     "cli (ring-identities, impurity witnesses); modules flat"),
    # -- zmod -----------------------------------------------------------------
    ("zmod", "FinMod.__init__", None, _TIMED, "job_p50_ms on modules, peak_rss_mb"),
    ("zmod", "FinMod.enumerate", _enumerate, _TIMED + ("max_elements",),
     "job_p50_ms on modules, peak_rss_mb"),
    ("zmod", "FinMod.orbits", None, _TIMED, "cli (module build), peak_rss_mb"),
    ("zmod", "FinMod.invariant_subgroups", None, _TIMED, "not run by either workload"),
    # -- presentation ---------------------------------------------------------
    ("presentation", "build_aug", _build_aug, _TIMED + ("max_size",), "modules and cli"),
    ("presentation", "EquivariantLattice.__init__", None, _TIMED, "modules and cli"),
    ("presentation", "EquivariantLattice.is_noncyclotomic", None, _TIMED,
     "modules and cli"),
    ("presentation", "find_invariant_basis", _find_invariant_basis,
     _TIMED + ("max_k", "exhausted"), "modules and cli"),
    ("presentation", "EquivariantLattice.stabilized", None, ("calls",),
     "modules and cli (counts stabilization retries)"),
    # -- lattice_props --------------------------------------------------------
    ("lattice_props", "InclusionPair.__init__", None, _TIMED,
     "cli (inclusion commands); modules flat"),
    ("lattice_props", "check_t_intersection", None, _TIMED,
     "cli (inclusion commands); modules flat"),
    ("lattice_props", "check_t_condition", None, _TIMED,
     "cli (inclusion commands); modules flat"),
    ("lattice_props", "find_impurity_witness", None, _TIMED,
     "cli (inclusion commands); modules flat"),
    ("lattice_props", "find_equivariant_projection", None, _TIMED,
     "cli (inclusion diagram); modules flat"),
    ("lattice_props", "inclusion_diagram", None, _TIMED,
     "cli (inclusion diagram); modules flat"),
    # -- graphkit -------------------------------------------------------------
    ("graphkit", "build_strand_graph", None, _TIMED, "cli (graph commands); modules flat"),
    ("graphkit", "build_group_graph", None, _TIMED, "cli (graph commands); modules flat"),
    ("graphkit", "GadgetGraph.window_edges", None, _TIMED,
     "cli (graph commands); modules flat"),
    ("graphkit", "validate_automorphism", None, _TIMED, "cli (graph commands); modules flat"),
    ("graphkit", "is_irreducible", None, _TIMED, "cli (graph build); modules flat"),
    # -- ktheory --------------------------------------------------------------
    ("ktheory", "boundary_matrix", _boundary_matrix, _TIMED + ("max_dim",),
     "job_tail_ms on cli; modules flat"),
    ("ktheory", "compute_k", None, _TIMED, "job_tail_ms on cli; modules flat"),
    ("ktheory", "induced_action", None, _TIMED, "job_tail_ms on cli; modules flat"),
    ("ktheory", "core_class_relations", None, _TIMED, "job_tail_ms on cli; modules flat"),
    ("ktheory", "stabilization_check", None, _TIMED, "job_tail_ms on cli; modules flat"),
    ("ktheory", "verify_group_graph", None, _TIMED, "cli (graph verify); modules flat"),
    # -- cli ------------------------------------------------------------------
    ("cli", "main", None, _TIMED, "cli only; modules flat"),
    ("cli", "cmd_module", None, _TIMED, "cli only; modules flat"),
    ("cli", "cmd_inclusion", None, _TIMED, "cli only; modules flat"),
    ("cli", "cmd_graph", None, _TIMED, "cli only; modules flat"),
]

# unit and direction of each statistic
STATS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "max_dim": ("count", "lower"),
    "max_bits": ("bits", "lower"),
    "nonzero_frac": ("frac", "higher"),
    "max_elements": ("count", "lower"),
    "max_size": ("count", "lower"),
    "max_k": ("count", "lower"),
    "exhausted": ("count", "lower"),
}

# Whole-run figures of the traced run: the traced and untraced wall time of
# the same jobs, their difference (the tracing overhead), the summed self
# time of the wrapped functions, the part of the traced job time spent
# outside every wrapped function, and the tracer's own bookkeeping inside the
# jobs.  wrapped_self_s + unwrapped_s + bookkeeping_s == wall_s.
TRACE_STATS = {
    "trace.jobs": ("count", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.wrapped_self_s": ("s", "lower"),
    "trace.unwrapped_s": ("s", "lower"),
    "trace.bookkeeping_s": ("s", "lower"),
}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, qualname, _collect, stats, _moves in LAYERS:
        for stat in stats:
            unit, better = STATS[stat]
            out.append((f"{module}.{qualname}.{stat}", unit, better))
    out.extend((name, unit, better) for name, (unit, better) in TRACE_STATS.items())
    return out
