"""Shared finite presentations of the five benchmark groups.

Each builder returns a GroupGraphSpec whose relation vectors were chosen by
hand so that they are independent, invariant under the induced permutation
and span the kernel of the generator map exactly.  data_group_specs() reads
the group graph files of tests/data, and data_group_graphs() builds them.
"""

import json
import pathlib

from cyclat.cli import _group_spec_from_json
from cyclat.graphkit import GroupGraphSpec, build_group_graph
from cyclat.intlinalg import IntMatrix, Lattice


def z2_degenerate():
    """Z/2 with the identity action: degenerate order-1 symmetry, p = 2."""
    return GroupGraphSpec(
        p=2,
        group_rank=1,
        group_rel=Lattice.spanned_by([(2,)], 1),
        group_aut=IntMatrix([[1]]),
        orbits=(("a0",),),
        pi0=(("a0", (1,)),),
        bvecs=((2,),),
    )


def z5_mult4():
    """Z/5 with multiplication by 4 (order 2), p = 2, generators A = G."""
    return GroupGraphSpec(
        p=2,
        group_rank=1,
        group_rel=Lattice.spanned_by([(5,)], 1),
        group_aut=IntMatrix([[4]]),
        orbits=(("g0",), ("g1", "g4"), ("g2", "g3")),
        pi0=(("g0", (0,)), ("g1", (1,)), ("g4", (4,)), ("g2", (2,)), ("g3", (3,))),
        # flattened order (g0, g1, g4, g2, g3): one fixed vector plus two
        # swapped pairs; a third pair would be forced dependent.
        bvecs=(
            (1, -1, -1, 0, 0),
            (0, 1, 0, 2, 0),
            (0, 0, 1, 0, 2),
            (0, 1, 0, 0, 3),
            (0, 0, 1, 3, 0),
        ),
    )


def z7_mult2():
    """Z/7 with multiplication by 2 (order 3), p = 3, generators A = G."""
    return GroupGraphSpec(
        p=3,
        group_rank=1,
        group_rel=Lattice.spanned_by([(7,)], 1),
        group_aut=IntMatrix([[2]]),
        orbits=(("g0",), ("g1", "g2", "g4"), ("g3", "g6", "g5")),
        pi0=(
            ("g0", (0,)),
            ("g1", (1,)),
            ("g2", (2,)),
            ("g4", (4,)),
            ("g3", (3,)),
            ("g6", (6,)),
            ("g5", (5,)),
        ),
        # flattened order (g0, g1, g2, g4, g3, g6, g5): one fixed vector and
        # two free 3-orbits, index 7 over Z^7.
        bvecs=(
            (1, -1, -1, -1, 0, 0, 0),
            (0, 2, 0, 0, 0, 0, 1),
            (0, 0, 2, 0, 1, 0, 0),
            (0, 0, 0, 2, 0, 1, 0),
            (0, 0, 0, 1, 1, 0, 0),
            (0, 1, 0, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 0, 1),
        ),
    )


def z3sq_swap():
    """(Z/3)^2 with the coordinate swap, p = 2."""
    return GroupGraphSpec(
        p=2,
        group_rank=2,
        group_rel=Lattice.spanned_by([(3, 0), (0, 3)], 2),
        group_aut=IntMatrix([[0, 1], [1, 0]]),
        orbits=(("a1", "a2"),),
        pi0=(("a1", (1, 0)), ("a2", (0, 1))),
        bvecs=((3, 0), (0, 3)),
    )


def zsq_swap():
    """Z^2 (free, no relations) with the coordinate swap, p = 2."""
    return GroupGraphSpec(
        p=2,
        group_rank=2,
        group_rel=Lattice(2),
        group_aut=IntMatrix([[0, 1], [1, 0]]),
        orbits=(("a1", "a2"),),
        pi0=(("a1", (1, 0)), ("a2", (0, 1))),
        bvecs=(),
    )


ALL_SPECS = (z2_degenerate, z5_mult4, z7_mult2, z3sq_swap, zsq_swap)


def data_group_specs():
    """(file stem, spec) of each group graph file in tests/data."""
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("group_*.json")):
        yield path.stem, _group_spec_from_json(json.loads(path.read_text(encoding="utf-8")))


def data_group_graphs():
    """(file stem, gadget graph) of each group graph file in tests/data."""
    for stem, spec in data_group_specs():
        yield stem, build_group_graph(spec)
