"""The benchmark workloads: job lists drawn from a seed, the job each entry
runs, and the oracle that checks its verdicts.

Every workload has the same shape:

* ``make_jobs(cy, rng)`` draws the job list from ``rng`` (a seeded
  ``random.Random``) as a list of blocks.  A job is plain data (integers, tuples, strings): the
  library sees only these generated inputs and builds every object afresh
  inside the job, so no cached state carries over from one job to the next.
* ``warmup_job(cy)`` is a small fixed job, the same for every seed.
* ``execute(cy, job)`` is what is timed: the library calls of one job.
* ``check(cy, job, outcome)`` returns the list of wrong verdicts.  Expected
  answers come from the theory (and, for ``cli``, from ``tests/golden``),
  never from an earlier run.  Every job carries the answers known before it
  runs in ``job["expect"]``; the rest of the check is an equivalence the
  theory guarantees between two verdicts of the same job.

Job sizes are fixed per slot and only the contents are drawn, so the cost of
a job list changes little from seed to seed.  Each block holds every slot
once, in a shuffled order, and a timed run ends only at the end of a block,
so every run measures the same mix.  A block has an odd number of jobs, and
the jobs around its middle are runs of one command (``cli``) or slots whose
costs overlap (``modules``), so the median reads inside one group of jobs,
never on the edge between two commands of different cost, where a small
shift would swap which one it reads.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")


def _module_data(m):
    """A finite module as plain data: (p, r, relation basis rows, aut rows, shape)."""
    return (m.p, m.r, m.rel.basis.entries(), m.aut.entries(), m.shape)


def _fresh_module(cy, data):
    p, r, rel_rows, aut_rows, shape = data
    rel = cy.Lattice(r, cy.IntMatrix(rel_rows, shape=(r, len(rel_rows[0]) if rel_rows else 0)))
    return cy.FinMod(p, r, rel, cy.IntMatrix(aut_rows, shape=(r, r)), shape)


def _leaf_order(cy, leaf, p):
    return leaf.n if isinstance(leaf, cy.TrivCyclic) else leaf.q ** (leaf.k * p)


def _shapes_of_order(cy, p, order):
    """Every direct sum of one to three of random_spec's leaves (triv(2..9),
    cyclicR(q, k) for q in {2, 3, 5} and k in {1, 2}) of exactly this order."""
    leaves = [cy.TrivCyclic(n) for n in range(2, 10)]
    leaves += [cy.CyclicR(q, k) for q in (2, 3, 5) for k in (1, 2)]
    leaves = [leaf for leaf in leaves if order % _leaf_order(cy, leaf, p) == 0]
    return [
        combo
        for size in (1, 2, 3)
        for combo in itertools.combinations_with_replacement(leaves, size)
        if math.prod(_leaf_order(cy, leaf, p) for leaf in combo) == order
    ]


def _modules_of_order(cy, rng, p, order, count):
    """``count`` modules of exactly this order, built the way random_module
    builds them (a shape, then a random unimodular change of coordinates)
    but without its order-changing quotient step.  Every (shape, rebased or
    not) stratum comes up as evenly as count allows, in an order the seed
    shuffles, so the mix and the cost of making it are the same for every
    seed; the seed draws which job gets which stratum and the change of
    coordinates.  The summands keep one fixed order, since their order alone
    moves a job's cost by up to 25%."""
    strata = [(shape, rebase) for shape in _shapes_of_order(cy, p, order) for rebase in (False, True)]
    picks = (strata * (count // len(strata) + 1))[:count]
    rng.shuffle(picks)
    mods = []
    for shape, rebase in picks:
        m = cy.build(shape[0] if len(shape) == 1 else cy.DirectSum(shape), p)
        if rebase:
            w = cy.zmod.random_unimodular(rng, m.r)
            m = cy.FinMod(p, m.r, m.rel.transform(w), w @ m.aut @ cy.inv_unimodular(w))
        mods.append(m)
    return mods


def _shift(cy, p):
    """The regular representation of the generator: e_i -> e_(i+1 mod p)."""
    return cy.IntMatrix([[1 if i == (j + 1) % p else 0 for j in range(p)] for i in range(p)])


# ---------------------------------------------------------------------------
# modules: build_aug -> kernel_pair -> norm-kernel identity -> invariant basis
#
# Presentation kernels are noncyclotomic (that is the norm-kernel identity,
# acceptance criterion 2), so the identity holds, is_noncyclotomic() is
# true, NotNoncyclotomic is never raised, and a basis is always found.

MODULE_SLOTS = (
    (2, 4), (3, 6), (5, 5),  # 4-13 ms
    (5, 10), (3, 12), (2, 12), (5, 12), (5, 12),  # 16-36 ms: the median job
    (2, 16), (5, 16),  # 26-56 ms
    (5, 24),  # 60-95 ms: the tail
)
MODULE_REPLICATES = 48


def modules_make_jobs(cy, rng):
    """One block per replicate, each holding every slot once.

    The block has an odd number of slots and the median falls on the middle
    one of the five middle slots, whose costs overlap, so the median reads
    inside that group.  The tail reads the slowest strata of (5, 24).
    """
    columns = [_modules_of_order(cy, rng, p, order, MODULE_REPLICATES) for p, order in MODULE_SLOTS]
    blocks = []
    for row in zip(*columns):
        block = [{"module": _module_data(m), "expect": {"identity": True, "noncyclotomic": True}}
                 for m in row]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def modules_warmup_job(cy):
    m = cy.build(cy.CyclicR(2, 1), 2)
    return {"module": _module_data(m), "expect": {"identity": True, "noncyclotomic": True}}


def modules_execute(cy, job):
    IntMatrix, Lattice = cy.IntMatrix, cy.Lattice
    m = _fresh_module(cy, job["module"])
    pres = cy.build_aug(m)
    eq = pres.kernel_pair()
    n, a = pres.size, pres.action
    one = IntMatrix.identity(n)
    nrm, acc = one, one
    for _ in range(m.p - 1):
        acc = a @ acc
        nrm = nrm + acc
    lat = eq.lattice
    identity = cy.kernel_basis(nrm).intersect(lat) == Lattice(n, (a - one) @ lat.basis)
    noncyc = eq.is_noncyclotomic()
    try:
        k, basis = cy.find_invariant_basis(eq, allow_stabilization=True)
    except cy.NotNoncyclotomic:
        k, basis = None, None
    return {"identity": identity, "noncyclotomic": noncyc, "eq": eq, "k": k, "basis": basis}


def modules_check(cy, job, out):
    bad = [
        f"{key}: got {out[key]}, expected {want}"
        for key, want in job["expect"].items()
        if out[key] != want
    ]
    if (out["basis"] is None) != (not out["noncyclotomic"]):
        bad.append("NotNoncyclotomic raised iff is_noncyclotomic() is false: violated")
    basis = out["basis"]
    if basis is None:
        return bad
    eq, k, p = out["eq"], out["k"], out["eq"].p
    IntMatrix, Lattice = cy.IntMatrix, cy.Lattice
    n = eq.lattice.ambient + k * p
    target = Lattice(n, IntMatrix.block_diag(eq.lattice.basis, IntMatrix.identity(k * p)))
    action = IntMatrix.block_diag(eq.action, *([_shift(cy, p)] * k)) if k else eq.action
    vecs = basis.vectors()
    if len(vecs) != target.rank or Lattice(n, IntMatrix.from_cols(vecs, rows=n)) != target:
        bad.append("basis does not span the (stabilized) kernel lattice")
    for blk in basis.orbit_blocks:
        if len(blk) != p or blk[0] == blk[1 % p]:
            bad.append("orbit block is not of length p")
        if any(action.apply(v) != blk[(i + 1) % p] for i, v in enumerate(blk)):
            bad.append("orbit block is not a p-cycle of the action")
    if any(action.apply(v) != v for v in basis.fixed_vectors):
        bad.append("fixed vector moves")
    return bad


# ---------------------------------------------------------------------------
# cli: a fixed session of README-style commands through cyclat.cli.main
#
# Each entry is (argv, exit code, golden file or None, lines stdout must
# contain).  The headline values follow from the theory: element counts of
# the modules, full-rank presentation kernels, K groups of strand and group
# graphs, the R/(4) counterexample of acceptance criterion 5.

Z2, Z5 = (os.path.join("tests", "data", f) for f in ("group_z2.json", "group_z5.json"))
Z7 = os.path.join(DATA, "group_z7.json")

# The commands cost from 2 ms to 660 ms, with six of them at 12-14 ms in the
# middle.  MEDIAN_COPIES more runs of this one make the block odd (35 jobs)
# and put the median inside the runs of a single command, not on the edge
# between two different commands.
MEDIAN_ENTRY = (("module", "check-noncyc", "cyclicR(2,2)", "--p", "2"), 0, None, ("noncyclotomic: true",))
MEDIAN_COPIES = 7

SESSION = (
    (("ring-identities", "--p", "3", "--format", "structured"), 0, "ring_identities_p3.json", ()),
    (("ring-identities", "--p", "7"), 0, None, ("core at 1: -1", "power identities up to k = 4: ok")),
    (("ring-identities", "--p", "13"), 0, None, ("core at 1: -1", "power identities up to k = 4: ok")),
    (("module", "build", "cyclicR(2,1) + triv(3)", "--p", "2"), 0, None,
     ("order: 12", "element orbits: 3 free, 6 fixed")),
    (("module", "build", "cyclicR(2,1)+triv(4)", "--p", "5"), 0, None,
     ("order: 128", "element orbits: 24 free, 8 fixed")),
    (("module", "present", "cyclicR(2,1)+triv(2)", "--p", "5"), 0, None,
     ("elements: 64", "kernel rank: 64", "noncyclotomic: true")),
    (("module", "present", "cyclicR(3,1)", "--p", "3"), 0, None,
     ("elements: 27", "kernel rank: 27", "noncyclotomic: true")),
    (("module", "invariant-basis", "cyclicR(2,1)", "--p", "2", "--format", "structured"), 0,
     "invariant_basis_cyclicR21_p2.json", ()),
    (("module", "invariant-basis", "cyclicR(2,1)+triv(2)", "--p", "5"), 0, None, ("rank: 64",)),
    (("module", "invariant-basis", "cyclicR(2,1)", "--p", "5"), 0, None, ("rank: 32",)),
    MEDIAN_ENTRY,
    (("module", "check-noncyc", "cyclicR(2,1)+triv(3)", "--p", "3"), 0, None, ("noncyclotomic: true",)),
    (("module", "present", "freeR(1)", "--p", "2"), 65, None, ()),
    (("inclusion", "check", "cyclicR(2,2)", "--sub", "t", "--p", "2"), 1, None,
     ("kernel intersection identity: true", "twist condition: false", "impurity witness lam: 1 + x")),
    (("inclusion", "witness", "cyclicR(2,2)", "--sub", "t", "--p", "2"), 1, "inclusion_witness_r4.txt", ()),
    (("inclusion", "diagram", "cyclicR(2,1)", "--sub", "full", "--p", "2"), 0, None,
     ("twist condition: true", "kernel projection verified")),
    (("inclusion", "diagram", "cyclicR(2,2)", "--sub", "t", "--p", "2"), 1, None,
     ("twist condition: false, no commuting inclusion diagram", "impurity witness lam: 1 + x")),
    (("inclusion", "check", "cyclicR(2,1)+triv(2)", "--sub", "zero", "--p", "3"), 0, None,
     ("kernel intersection identity: true", "twist condition: true")),
    (("graph", "build", "--strand", "4", "--cyclic", "--p", "3"), 0, None,
     ("automorphism order: 3", "irreducible: true")),
    (("graph", "ktheory", "--strand", "4", "--p", "3", "--format", "structured"), 0,
     "ktheory_strand4_p3.json", ()),
    (("graph", "ktheory", "--strand", "8", "--cyclic", "--depth", "4"), 0, None, ("K = (0, Z^7)",)),
    (("graph", "ktheory", "--strand", "16", "--cyclic", "--depth", "6"), 0, None, ("K = (0, Z^15)",)),
    (("graph", "ktheory", "--strand", "2", "--depth", "1"), 64, None, ()),
    (("graph", "verify", "--file", Z5, "--p", "2"), 0, "verify_z5.txt", ()),
    (("graph", "verify", "--file", Z7), 0, None, ("K0 = Z/7, K1 = 0, map OK", "verified: true")),
    (("graph", "stability", "--strand", "16", "--p", "7", "--depth", "6"), 0, None,
     ("depth 6: K0 0, K1 rank 15", "stable: true")),
    (("graph", "stability", "--file", Z2, "--depth", "4"), 0, None,
     ("depth 4: K0 Z/2, K1 rank 0", "stable: true")),
    (("graph", "dot", "--strand", "2", "--depth", "2"), 0, None, ("digraph gadget {",)),
)


def _golden_text(name):
    path = os.path.join("tests", "golden", name)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli_job(entry):
    argv, rc, golden, lines = entry
    return {"argv": list(argv), "expect": {"rc": rc, "stdout": _golden_text(golden) if golden else None},
            "lines": lines}


def cli_make_jobs(cy, rng):
    jobs = [_cli_job(entry) for entry in SESSION + (MEDIAN_ENTRY,) * MEDIAN_COPIES]
    rng.shuffle(jobs)
    return [jobs]


def cli_warmup_job(cy):
    return _cli_job((("ring-identities", "--p", "2"), 0, None, ("core at 1: -1",)))


def cli_execute(cy, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cy.cli.main(job["argv"])
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_check(cy, job, out):
    want = job["expect"]
    bad = []
    if out["rc"] != want["rc"]:
        bad.append(f"exit code {out['rc']}, expected {want['rc']}: {out['stderr'].strip()}")
    if want["stdout"] is not None and out["stdout"] != want["stdout"]:
        bad.append("stdout differs from the golden file")
    bad.extend(f"stdout lacks {line!r}" for line in job["lines"] if line not in out["stdout"].splitlines())
    return bad


# name: (make_jobs, warmup_job, execute, check)
WORKLOADS = {
    "modules": (modules_make_jobs, modules_warmup_job, modules_execute, modules_check),
    "cli": (cli_make_jobs, cli_warmup_job, cli_execute, cli_check),
}
