"""Exact-arithmetic workbench for integer lattices carrying a prime-order
automorphism, the canonical presentations they generate, and the K-theory
of the directed graphs assembled from those presentations.
"""

from .cyclo_ring import (
    PrimeIdentities,
    RingElt,
    const,
    decompose_prime,
    generator,
    is_prime,
    norm,
    twist,
)
from .errors import (
    CyclatError,
    InternalInvariantError,
    NotNoncyclotomic,
    ParseError,
    PreconditionError,
    SearchExhausted,
)
from .graphkit import (
    INWARD,
    OUTWARD,
    AutomorphismReport,
    GadgetGraph,
    GroupGraphSpec,
    RayFamily,
    build_group_graph,
    build_strand_graph,
    delete_strand,
    is_irreducible,
    to_dot,
    validate_automorphism,
)
from .intlinalg import (
    IntMatrix,
    Lattice,
    QuotientInvariants,
    SnfResult,
    charpoly,
    column_rank,
    det,
    hnf,
    inv_unimodular,
    kernel_basis,
    quotient_invariants,
    snf,
    solve_columns,
)
from .ktheory import (
    BoundaryMatrix,
    GroupVerification,
    KResult,
    PropertyCheck,
    TruncationReport,
    boundary_matrix,
    compute_k,
    core_class_relations,
    induced_action,
    stabilization_check,
    verify_group_graph,
)
from .lattice_props import (
    DiagramReport,
    InclusionDiagram,
    InclusionPair,
    IntersectionReport,
    PurityVerdict,
    check_t_condition,
    check_t_intersection,
    find_equivariant_projection,
    find_impurity_witness,
    inclusion_diagram,
    purity_witness,
)
from .presentation import (
    AugPresentation,
    EquivariantLattice,
    InvariantBasis,
    StabilizedPresentation,
    assemble_direct_sum,
    build_aug,
    cyclic_r_basis,
    cyclic_trivial_basis,
    find_invariant_basis,
    stabilize_presentation,
)
from .zmod import (
    CyclicR,
    DirectSum,
    FinMod,
    FreeR,
    Submodule,
    TrivCyclic,
    TrivFree,
    build,
    direct_sum,
    parse_modspec,
    random_module,
)

__version__ = "0.1.0"
