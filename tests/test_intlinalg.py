import copy
import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclat.errors import InternalInvariantError, PreconditionError
from cyclat.graphkit import build_strand_graph
from cyclat.intlinalg import (
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
from cyclat.intlinalg import _certify_snf, _hnf_divmod, abs_det, is_unimodular
from cyclat.ktheory import boundary_matrix
from cyclat.presentation import build_aug
from cyclat.zmod import build, parse_modspec, random_unimodular
from groupspecs import data_group_graphs


def mat(rows):
    return IntMatrix(rows)


@st.composite
def small_matrices(draw, max_dim=5, max_entry=9):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    ent = draw(
        st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return IntMatrix(ent)


class TestMatrixBasics:
    def test_shape_and_indexing(self):
        a = mat([[1, 2, 3], [4, 5, 6]])
        assert (a.rows, a.cols) == (2, 3)
        assert a[1, 2] == 6
        assert a.col(1) == (2, 5)
        assert a.row(0) == (1, 2, 3)

    def test_empty_shapes(self):
        z = IntMatrix.zeros(3, 0)
        assert (z.rows, z.cols) == (3, 0)
        assert IntMatrix.zeros(0, 2).cols == 2
        assert z.is_zero()

    def test_ragged_rejected(self):
        with pytest.raises(PreconditionError):
            IntMatrix([[1, 2], [3]])

    def test_immutable(self):
        a = mat([[1]])
        with pytest.raises(AttributeError):
            a.rows = 2

    def test_matmul(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert a @ b == mat([[2, 1], [4, 3]])
        assert a.apply((1, 1)) == (3, 7)

    def test_arithmetic(self):
        a = mat([[1, 2], [3, 4]])
        assert a + a == 2 * a
        assert a - a == IntMatrix.zeros(2, 2)
        assert -a == -1 * a

    def test_stacking(self):
        a = mat([[1], [2]])
        b = mat([[3], [4]])
        assert IntMatrix.hstack(a, b) == mat([[1, 3], [2, 4]])
        assert IntMatrix.vstack(a, b) == mat([[1], [2], [3], [4]])
        assert IntMatrix.block_diag(mat([[1]]), mat([[2]])) == mat([[1, 0], [0, 2]])

    def test_pow(self):
        a = mat([[0, -1], [1, -1]])  # order 3
        assert a.pow(3) == IntMatrix.identity(2)
        assert a.pow(0) == IntMatrix.identity(2)

    @pytest.mark.parametrize(
        "a",
        [
            IntMatrix.identity(0),
            mat([[3]]),
            mat([[0, 1], [1, 0]]),
            mat([[1, 2], [-3, 4]]),
            mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        ],
    )
    def test_pow_matches_repeated_products(self, a):
        expect = IntMatrix.identity(a.rows)
        for k in range(10):
            assert a.pow(k) == expect
            expect = expect @ a

    def test_pow_rejects_non_square_and_negative(self):
        with pytest.raises(PreconditionError):
            mat([[1, 2]]).pow(2)
        with pytest.raises(PreconditionError):
            mat([[1]]).pow(-1)


BIG = 2**70


def textbook_product(a, b, n):
    """Rows of a @ b by the triple loop, for a with len(b) columns and b with n columns."""
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(n)] for row in a]


@st.composite
def entry_rows(draw, m, n, kind, bound=BIG):
    """m rows of n ints: dense, mostly zero, a permutation or unit columns."""
    if kind == "permutation" and m == n:
        perm = draw(st.permutations(range(n)))
        return [[1 if perm[j] == i else 0 for j in range(n)] for i in range(m)]
    if kind in ("permutation", "unit columns"):
        if m == 0:
            return [] if n == 0 else draw(entry_rows(m, n, "dense", bound))
        targets = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        return [[1 if targets[j] == i else 0 for j in range(n)] for i in range(m)]
    entry = st.integers(-bound, bound)
    if kind == "mostly zero":
        entry = st.one_of(st.just(0), st.just(0), st.just(0), st.just(0), entry)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))


KINDS = st.sampled_from(["dense", "mostly zero", "permutation", "unit columns"])


@st.composite
def product_operands(draw):
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    a = draw(entry_rows(m, k, draw(KINDS)))
    b = draw(entry_rows(k, n, draw(KINDS)))
    return (m, k, n), a, b


def assert_public_form(x):
    """x is exactly what the public constructor makes of its own entries."""
    y = IntMatrix(x.entries(), shape=(x.rows, x.cols))
    assert x == y and hash(x) == hash(y)
    assert len(x.entries()) == x.rows
    assert all(type(row) is tuple and len(row) == x.cols for row in x.entries())
    assert all(type(v) is int for row in x.entries() for v in row)


class TestSparseProducts:
    """The sparse-aware product and apply against the textbook triple loop."""

    @given(product_operands())
    @settings(max_examples=300, deadline=None)
    def test_matmul_matches_triple_loop(self, operands):
        (m, k, n), a, b = operands
        got = IntMatrix(a, shape=(m, k)) @ IntMatrix(b, shape=(k, n))
        assert (got.rows, got.cols) == (m, n)
        assert got.tolist() == textbook_product(a, b, n)
        assert_public_form(got)

    @given(product_operands())
    @settings(max_examples=200, deadline=None)
    def test_apply_matches_triple_loop(self, operands):
        (m, k, n), a, b = operands
        mat_a = IntMatrix(a, shape=(m, k))
        for j in range(n):
            v = tuple(row[j] for row in b)
            assert mat_a.apply(v) == tuple(r[0] for r in textbook_product(a, [[x] for x in v], 1))

    @given(product_operands())
    @settings(max_examples=150, deadline=None)
    def test_internal_results_are_public_matrices(self, operands):
        (m, k, n), a, b = operands
        x, y = IntMatrix(a, shape=(m, k)), IntMatrix(b, shape=(k, n))
        square = IntMatrix(a[:k] if m >= k else a + [[0] * k] * (k - m), shape=(k, k))
        results = [
            x @ y, x + x, x - x, -x, 3 * x, x.transpose(), y.transpose(),
            x.submatrix(range(m - 1, -1, -1), range(k)), x.submatrix([], range(k)),
            IntMatrix.hstack(x, x), IntMatrix.vstack(y, y), IntMatrix.block_diag(x, y),
            IntMatrix.zeros(m, k), IntMatrix.identity(k), square.pow(2),
            IntMatrix.unit_columns(k, [i % k for i in range(n)]) if k else IntMatrix.zeros(0, 0),
        ]
        small = IntMatrix([[v % 7 - 3 for v in row] for row in a], shape=(m, k))
        results += list(hnf(small))
        res = snf(small)
        results += [res.u, res.s, res.v]
        sol = solve_columns(small, small)
        results.append(sol)
        for r in results:
            assert_public_form(r)

    def test_permutation_products(self):
        p = IntMatrix.unit_columns(4, [2, 0, 3, 1])
        b = IntMatrix([[BIG, 0], [0, -1], [5, 0], [0, 0]])
        assert p @ b == IntMatrix(textbook_product(p.tolist(), b.tolist(), 2))
        assert p.transpose() @ p == IntMatrix.identity(4)
        assert p.apply((0, 0, BIG, 0)) == (0, 0, 0, BIG)  # column 2 is e_3

    @pytest.mark.parametrize("m,k,n", [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0)])
    def test_empty_shapes(self, m, k, n):
        got = IntMatrix.zeros(m, k) @ IntMatrix.zeros(k, n)
        assert got == IntMatrix.zeros(m, n)
        assert IntMatrix.zeros(m, k).apply((0,) * k) == (0,) * m


@st.composite
def storage_operands(draw):
    """product_operands' m x k rows a, a second m x k matrix cancelling part of
    a, and row and column indices into them, reordered and repeated."""
    (m, k, _), a, _ = draw(product_operands())
    other = draw(entry_rows(m, k, draw(KINDS)))
    cancel = draw(st.lists(st.booleans(), min_size=m * k, max_size=m * k))
    b = [[-a[i][j] if cancel[i * k + j] else other[i][j] for j in range(k)] for i in range(m)]
    row_idx = draw(st.lists(st.integers(0, m - 1), max_size=8)) if m else []
    col_idx = draw(st.lists(st.integers(0, k - 1), max_size=8)) if k else []
    return (m, k), a, b, row_idx, col_idx


def transposed(rows, width):
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(width)]


class TestRowStorage:
    """Every IntMatrix operation on {column: nonzero} rows against list arithmetic."""

    @given(storage_operands(), st.integers(-3, 3))
    @settings(max_examples=120, deadline=None)
    def test_matches_list_arithmetic(self, operands, c):
        (m, k), a, b, row_idx, col_idx = operands
        x, y = IntMatrix(a, shape=(m, k)), IntMatrix(b, shape=(m, k))
        s = min(m, k)
        sq = [row[:s] for row in a[:s]]
        square = x.submatrix(range(s), range(s))
        cases = [
            (x + y, [[u + v for u, v in zip(r, t)] for r, t in zip(a, b)]),
            (x - y, [[u - v for u, v in zip(r, t)] for r, t in zip(a, b)]),
            (x + (-x), [[0] * k for _ in range(m)]),
            (-x, [[-u for u in r] for r in a]),
            (c * x, [[c * u for u in r] for r in a]),
            (x * c, [[u * c for u in r] for r in a]),
            (x.transpose(), transposed(a, k)),
            (IntMatrix.hstack(x, y, x), [r + t + r for r, t in zip(a, b)]),
            (IntMatrix.vstack(x, y), a + b),
            (IntMatrix.block_diag(x, y), [r + [0] * k for r in a] + [[0] * k + t for t in b]),
            (x.submatrix(row_idx, col_idx), [[a[i][j] for j in col_idx] for i in row_idx]),
            (square, sq),
        ]
        power = [[int(i == j) for j in range(s)] for i in range(s)]
        for e in range(4):
            cases.append((square.pow(e), power))
            power = textbook_product(power, sq, s)
        for got, want in cases:
            assert got.tolist() == want
            assert (got.rows, got.cols) == (len(want), len(want[0]) if want else got.cols)
            assert_public_form(got)
        assert square.trace() == sum(sq[i][i] for i in range(s))
        assert x.is_zero() == (not any(map(any, a)))
        assert (x - x).is_zero() and IntMatrix.zeros(m, k).is_zero()
        assert all(x[i, j] == a[i][j] for i in range(m) for j in range(k))
        if m and k:
            assert x[-1, -1] == a[-1][-1]
        assert [x.row(i) for i in range(m)] == [tuple(r) for r in a]
        assert [x.col(j) for j in range(k)] == [tuple(col) for col in transposed(a, k)]
        assert x.columns() == [tuple(col) for col in transposed(a, k)]
        assert x.entries() == tuple(map(tuple, a))
        for v in b:
            assert x.apply(v) == tuple(sum(u * w for u, w in zip(r, v)) for r in a)

    @given(storage_operands())
    @settings(max_examples=80, deadline=None)
    def test_operands_are_never_changed(self, operands):
        # results may share rows with their operands, so a kernel that
        # updated a row in place would change the operand too
        (m, k), a, b, row_idx, col_idx = operands
        x, y = IntMatrix(a, shape=(m, k)), IntMatrix(b, shape=(m, k))
        stacked = IntMatrix.vstack(x, y)
        mats = (x, y, stacked)
        before = [mat.entries() for mat in mats]
        results = [
            x + y, x - y, -x, 0 * x, 2 * x, x.transpose(), x.submatrix(row_idx, col_idx),
            IntMatrix.hstack(x, y), IntMatrix.block_diag(x, y), stacked @ x.transpose(),
            (stacked.transpose() @ stacked).pow(2),
        ]
        for mat in mats:
            results += [*hnf(mat), snf(mat).s, Lattice(mat.rows, mat).basis]
            results.append(solve_columns(mat, mat))
        sol = solve_columns(x, y)
        for r in results + ([] if sol is None else [sol]):
            r + r - r
            r @ r.transpose()
        assert [mat.entries() for mat in mats] == before
        assert x == IntMatrix(a, shape=(m, k)) and y == IntMatrix(b, shape=(m, k))

    @given(storage_operands())
    @settings(max_examples=80, deadline=None)
    def test_from_cols_matches_the_constructor(self, operands):
        # a holds m columns of length k
        (m, k), a, _, _, _ = operands
        got = IntMatrix.from_cols(a, rows=k)
        assert got == IntMatrix(transposed(a, k), shape=(k, m))
        assert_public_form(got)
        if m:
            assert IntMatrix.from_cols(a) == got
            with pytest.raises(PreconditionError):
                IntMatrix.from_cols(a, rows=k + 1)
            with pytest.raises(PreconditionError):
                IntMatrix.from_cols(a + [a[0] + [1]])

    def test_from_cols_coerces_to_int(self):
        got = IntMatrix.from_cols([(True, 0, -2), (0, False, 3)])
        assert got == IntMatrix([[1, 0], [0, 0], [-2, 3]])
        assert_public_form(got)
        with pytest.raises(PreconditionError):
            IntMatrix.from_cols([])

    def test_out_of_range_index_raises(self):
        x = IntMatrix([[1, 0, 2], [0, 0, 3]])
        for bad in (
            lambda: x[2, 0], lambda: x[0, 3], lambda: x[-3, 0], lambda: x[0, -4],
            lambda: x.row(2), lambda: x.col(3), lambda: x.col(-4),
            lambda: x.submatrix([2], [0]), lambda: x.submatrix([0], [3]),
            lambda: IntMatrix.unit_columns(2, [0, 2]),
        ):
            with pytest.raises(IndexError):
                bad()


@st.composite
def index_map(draw, m, n):
    """An m x n index map: a permutation or the identity when square, unit
    columns (column j is e_t for some t), or unit rows (row i is e_t)."""
    kinds = ["unit columns", "unit rows"] + (["permutation", "identity"] if m == n else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return IntMatrix.identity(n)
    if kind == "permutation":
        return IntMatrix.unit_columns(n, draw(st.permutations(range(n))))
    if kind == "unit rows":
        if n == 0:
            return IntMatrix.zeros(m, 0)
        return IntMatrix.unit_columns(n, draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))).transpose()
    if m == 0:
        return IntMatrix.zeros(0, n)
    return IntMatrix.unit_columns(m, draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))


@st.composite
def index_map_operands(draw):
    """A k x n matrix A of any kind and index maps P (m x k) and Q (n x l) around it."""
    m, k, n, l = (draw(st.integers(0, 6)) for _ in range(4))
    a = IntMatrix(draw(entry_rows(k, n, draw(KINDS))), shape=(k, n))
    square = draw(st.booleans())
    p = draw(index_map(k if square else m, k))
    q = draw(index_map(n, n if square else l))
    return a, p, q


class TestRowSharing:
    """A unit row {k: 1} of A makes row k of B the row of A @ B, shared and not
    copied; no kernel may then change a row it did not make."""

    @given(index_map_operands())
    @settings(max_examples=200, deadline=None)
    def test_index_map_products_are_the_textbook_products(self, operands):
        a, p, q = operands
        for x, y in ((p, a), (a, q), (p @ a, q)):
            got = x @ y
            assert got.tolist() == textbook_product(x.tolist(), y.tolist(), y.cols)
            assert_public_form(got)

    def test_a_unit_row_shares_the_row_it_picks(self):
        b = IntMatrix([[BIG, 0, 3], [0, -1, 0], [5, 0, 0]])
        perm = IntMatrix.unit_columns(3, [2, 0, 1])
        for x in (IntMatrix.identity(3), perm, IntMatrix.unit_columns(3, [1, 1, 0]).transpose()):
            got = x @ b
            picked = [next(iter(row)) for row in x._ent]
            assert all(row is b._ent[k] for row, k in zip(got._ent, picked))
        # a scaled or longer row is a new row
        got = IntMatrix([[2, 0, 0], [1, 1, 0], [0, 0, 1]]) @ b
        assert [row is brow for row, brow in zip(got._ent, b._ent)] == [False, False, True]

    @given(index_map_operands())
    @settings(max_examples=60, deadline=None)
    def test_kernels_leave_shared_rows_unchanged(self, operands):
        a, p, q = operands
        shared = [p @ a, a @ q, p @ a @ q, IntMatrix.identity(a.rows) @ a]
        mats = [a, p, q, *shared]
        snapshot = copy.deepcopy([mat._ent for mat in mats])
        for x in shared:
            x @ x.transpose()
            x.transpose() @ x
            x + x
            x - x
            hnf(x)
            snf(x)
            lattice = Lattice(x.rows, x)
            assert lattice.solve(x) is not None
            kernel_basis(x)
            assert solve_columns(x, x) is not None
            gram = x @ x.transpose()
            assert abs_det(gram) == abs(det(gram))
        assert [mat._ent for mat in mats] == snapshot


@given(small_matrices(max_dim=5), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_zero_columns_leave_the_canonical_basis_alone(b, before, after):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    n = b.rows
    padded = IntMatrix.hstack(IntMatrix.zeros(n, before), b, IntMatrix.zeros(n, after))
    lattice = Lattice(n, b)
    assert Lattice(n, padded) == lattice
    assert Lattice(n, IntMatrix.hstack(b, IntMatrix.zeros(n, after))) == lattice
    # sympy's Hermite form keeps another pivot convention: compare the lattices spanned
    h = hermite_normal_form(sympy.Matrix(n, b.cols, [x for row in b.tolist() for x in row]))
    assert lattice == Lattice(n, IntMatrix(h.tolist(), shape=(n, h.cols)))


class TestHnf:
    def test_same_lattice_same_form(self):
        # both column sets span {(x, y) : x == y mod 2}
        a = IntMatrix.from_cols([(2, 0), (1, 1)])
        b = IntMatrix.from_cols([(1, 1), (-1, 1)])
        ha, _ = hnf(a)
        hb, _ = hnf(b)
        assert ha == hb == IntMatrix.from_cols([(1, 1), (0, 2)])

    def test_different_lattices_differ(self):
        ha, _ = hnf(IntMatrix.from_cols([(2, 0), (0, 1)]))
        hb, _ = hnf(IntMatrix.from_cols([(1, 0), (0, 2)]))
        assert ha == IntMatrix.from_cols([(2, 0), (0, 1)])
        assert hb == IntMatrix.from_cols([(1, 0), (0, 2)])
        assert ha != hb

    def test_zero_columns_trail(self):
        h, u = hnf(mat([[1, 2, 3]]))
        assert h == mat([[1, 0, 0]])
        assert mat([[1, 2, 3]]) @ u == h

    def test_rank_deficient(self):
        a = mat([[1, 2], [2, 4], [3, 6]])
        h, u = hnf(a)
        assert a @ u == h
        assert column_rank(a) == 1

    @given(small_matrices())
    @settings(max_examples=120, deadline=None)
    def test_transform_identity(self, a):
        h, u = hnf(a)
        assert a @ u == h
        # U unimodular: inverse exists
        inv_unimodular(u)

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_canonical_under_column_shuffle(self, a):
        cols = a.columns()
        rng = random.Random(11)
        shuffled = cols[:]
        rng.shuffle(shuffled)
        shuffled = [tuple(-x for x in c) if i % 2 else c for i, c in enumerate(shuffled)]
        b = IntMatrix.from_cols(shuffled, rows=a.rows)
        assert hnf(a)[0] == hnf(b)[0]


class TestKernel:
    def test_explicit(self):
        k = kernel_basis(mat([[1, 2, 3]]))
        assert k.rank == 2
        assert k.basis == IntMatrix.from_cols([(1, 1, -1), (0, 3, -2)])

    def test_full_rank_trivial_kernel(self):
        assert kernel_basis(mat([[2, 0], [0, 3]])).is_zero()

    @given(small_matrices())
    @settings(max_examples=120, deadline=None)
    def test_annihilates_and_spans(self, a):
        k = kernel_basis(a)
        if k.rank:
            assert (a @ k.basis).is_zero()
        assert column_rank(a) + k.rank == a.cols


class TestSnf:
    @pytest.mark.parametrize(
        "rows,expect",
        [
            ([[2, 4], [6, 8]], (2, 4)),
            ([[1, 0], [0, 0]], (1, 0)),
            ([[0, 0], [0, 0]], (0, 0)),
            ([[6, 10], [10, 6]], (2, 32)),
            ([[2, 0, 0], [0, 3, 0]], (1, 6)),
        ],
    )
    def test_known_diagonals(self, rows, expect):
        assert snf(mat(rows)).diag == expect

    @given(small_matrices())
    @settings(max_examples=120, deadline=None)
    def test_transforms_and_divisibility(self, a):
        r = snf(a)
        assert r.u @ a @ r.v == r.s
        assert r.u_inv @ r.u == IntMatrix.identity(a.rows) == r.u @ r.u_inv
        d = r.diag
        for x, y in zip(d, d[1:]):
            assert x >= 0 and y >= 0
            if x:
                assert y % x == 0
            else:
                assert y == 0
        inv_unimodular(r.u)
        inv_unimodular(r.v)

    @given(small_matrices(max_dim=4))
    @settings(max_examples=60, deadline=None)
    def test_det_matches_diag_product(self, a):
        if not a.is_square():
            return
        prod = 1
        for x in snf(a).diag:
            prod *= x
        assert abs(det(a)) == prod


def _dense_snf_reference(a: IntMatrix) -> SnfResult:
    """Smith normal form with both transforms, deterministic pivoting; U^-1 by inv_unimodular."""
    m, n = a.rows, a.cols
    s = [list(row) for row in a.entries()]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_addmul(dst, src, c):
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def col_addmul(dst, src, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def swap_rows(i1, i2):
        s[i1], s[i2] = s[i2], s[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for row in s:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    for k in range(min(m, n)):
        while True:
            best = None
            for i in range(k, m):
                for j in range(k, n):
                    x = s[i][j]
                    if x and (best is None or abs(x) < abs(s[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best != (k, k):
                if best[0] != k:
                    swap_rows(k, best[0])
                if best[1] != k:
                    swap_cols(k, best[1])
            p = s[k][k]
            dirty = False
            for i in range(k + 1, m):
                if s[i][k]:
                    q = s[i][k] // p
                    if q:
                        row_addmul(i, k, -q)
                    if s[i][k]:
                        dirty = True
            for j in range(k + 1, n):
                if s[k][j]:
                    q = s[k][j] // p
                    if q:
                        col_addmul(j, k, -q)
                    if s[k][j]:
                        dirty = True
            if dirty:
                continue
            if s[k][k] < 0:
                s[k] = [-x for x in s[k]]
                u[k] = [-x for x in u[k]]
            p = s[k][k]
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if s[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(k, offender, 1)
        if all(s[i][j] == 0 for i in range(k, m) for j in range(k, n)):
            break

    u = IntMatrix(u, shape=(m, m))
    res = SnfResult(u, IntMatrix(s, shape=(m, n)), IntMatrix(v, shape=(n, n)), inv_unimodular(u))
    if res.u @ a @ res.v != res.s:
        raise InternalInvariantError("snf transform identity failed")
    return res


@st.composite
def snf_inputs(draw, max_dim=8):
    """Matrices up to max_dim square: dense, mostly zero, permutation-like, or with zero lines."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["dense", "mostly zero", "permutation", "zero lines"]))
    rows = draw(entry_rows(m, n, "dense" if kind == "zero lines" else kind, bound=2**40))
    if kind == "zero lines":
        dead_rows = draw(st.sets(st.integers(0, m - 1))) if m else set()
        dead_cols = draw(st.sets(st.integers(0, n - 1))) if n else set()
        rows = [
            [0 if i in dead_rows or j in dead_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    return IntMatrix(rows, shape=(m, n))


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def determinantal_divisors(a: IntMatrix) -> list[int]:
    """D_0 = 1 and D_k = gcd of the k x k minors of a, for k up to min(m, n)."""
    out = [1]
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(a.rows), k):
            for ci in itertools.combinations(range(a.cols), k):
                g = math.gcd(g, _leibniz_det([[a[i, j] for j in ci] for i in ri]))
        out.append(g)
    return out


class TestSnfOracle:
    """The sparse snf returns exactly the transforms of the dense elimination."""

    @staticmethod
    def assert_same(a):
        got, want = snf(a), _dense_snf_reference(a)
        assert got.u == want.u
        assert got.s == want.s
        assert got.v == want.v
        # U^-1 from the sparse elimination against an hnf inversion of the dense U
        assert got.u_inv == want.u_inv

    @given(snf_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_dense_reference(self, a):
        self.assert_same(a)

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("m", range(1, 17))
    def test_strand_boundary_matrices(self, m, cyclic):
        g = build_strand_graph(m, cyclic=cyclic)
        for depth in range(2, 7):
            self.assert_same(boundary_matrix(g, depth).matrix)

    def test_group_boundary_matrices(self):
        graphs = list(data_group_graphs())
        assert [name for name, _ in graphs] == ["group_z2", "group_z5"]
        for _, g in graphs:
            for depth in range(2, 5):
                self.assert_same(boundary_matrix(g, depth).matrix)

    @given(snf_inputs(max_dim=4))
    @settings(max_examples=150, deadline=None)
    def test_diagonal_is_quotient_of_determinantal_divisors(self, a):
        dk = determinantal_divisors(a)
        want = tuple(dk[k] // dk[k - 1] if dk[k - 1] else 0 for k in range(1, len(dk)))
        assert snf(a).diag == want


def _dense_hnf_reference(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form: (H, U) with H == A @ U, U unimodular.

    The dense elimination on lists of columns, with a separate U, that the
    sparse hnf replaced; it keeps the same pivot rule and operation order.
    """

    def col_addmul(dst: int, src: int, c: int) -> None:
        for mat in (cols, ucols):
            out = mat[dst]
            for i, x in enumerate(mat[src]):
                if x:
                    out[i] += c * x

    m, n = a.rows, a.cols
    cols = [list(a.col(j)) for j in range(n)]
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    piv = 0
    for i in range(m):
        if piv == n:
            break
        j0 = -1
        while True:
            live = [j for j in range(piv, n) if cols[j][i] != 0]
            if not live:
                j0 = -1
                break
            j0 = min(live, key=lambda j: (abs(cols[j][i]), j))
            others = [j for j in live if j != j0]
            if not others:
                break
            for j in others:
                q = cols[j][i] // cols[j0][i]
                if q:
                    col_addmul(j, j0, -q)
        if j0 < 0:
            continue
        if j0 != piv:
            cols[piv], cols[j0] = cols[j0], cols[piv]
            ucols[piv], ucols[j0] = ucols[j0], ucols[piv]
        if cols[piv][i] < 0:
            cols[piv] = [-x for x in cols[piv]]
            ucols[piv] = [-x for x in ucols[piv]]
        p = cols[piv][i]
        for j in range(piv):
            q = cols[j][i] // p
            if q:
                col_addmul(j, piv, -q)
        piv += 1
    return IntMatrix.from_cols(cols, rows=m), IntMatrix.from_cols(ucols, rows=n)


class TestHnfOracle:
    """The sparse hnf returns exactly the H and U of the dense elimination."""

    @staticmethod
    def assert_same(a):
        (h, u), (want_h, want_u) = hnf(a), _dense_hnf_reference(a)
        assert h == want_h
        assert u == want_u
        assert_public_form(h)
        assert_public_form(u)

    @given(snf_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_reference(self, a):
        self.assert_same(a)

    @given(snf_inputs(max_dim=5))
    @settings(max_examples=100, deadline=None)
    def test_stacked_on_itself(self, a):
        # repeated and opposite columns make every pivot search tie
        self.assert_same(IntMatrix.hstack(a, a, -a))

    @pytest.mark.parametrize(
        "spec, p",
        [("triv(4)", 3), ("cyclicR(2,1)", 2), ("cyclicR(2,1)", 3), ("cyclicR(2,1)+triv(2)", 2),
         ("cyclicR(3,1)", 2), ("cyclicR(2,2)", 2)],
    )
    def test_presentation_kernels(self, spec, p):
        # the matrix whose kernel build_aug's M.rel.preimage(pi) reads off U
        m = build(parse_modspec(spec), p)
        pres = build_aug(m)
        self.assert_same(IntMatrix.hstack(pres.pi_matrix, -m.rel.basis))

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
    def test_strand_boundary_matrices(self, m, cyclic):
        g = build_strand_graph(m, cyclic=cyclic)
        for depth in (2, 4, 6):
            a = boundary_matrix(g, depth).matrix
            self.assert_same(a)
            self.assert_same(a.transpose())

    @given(snf_inputs(max_dim=6), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_unique_under_unimodular_column_change(self, a, seed):
        # H depends on the column span only, not on the generators
        w = random_unimodular(random.Random(seed), a.cols)
        assert hnf(a @ w)[0] == hnf(a)[0]


def test_lattice_spans_what_an_independent_hermite_form_spans():
    # sympy's Hermite form keeps another pivot convention, so the two bases
    # are compared as the lattices they span; sympy's form of Lattice's basis
    # must also be sympy's form of A, which no code of ours decides
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    def sympy_form(a: IntMatrix):
        return hermite_normal_form(sympy.Matrix(a.rows, a.cols, [x for row in a.tolist() for x in row]))

    rng = random.Random(27)
    deficient = 0
    for _ in range(400):
        m, n = rng.randint(1, 6), rng.randint(0, 7)
        rows = [[rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(m)]
        a = IntMatrix(rows, shape=(m, n))
        h = sympy_form(a)
        got = Lattice(m, a)
        assert got == Lattice(m, IntMatrix(h.tolist(), shape=(m, h.cols)))
        assert sympy_form(got.basis) == h
        deficient += got.rank < min(m, n)
    assert deficient > 100


def _columnwise_solve_reference(a: IntMatrix, b: IntMatrix):
    """solve_columns as one _hnf_divmod per column of B, which the one forward
    substitution replaced; the same X or the same None."""
    if a.rows != b.rows:
        raise PreconditionError("row count mismatch")
    h, u = hnf(a)
    ycols = []
    for c in b.columns():
        y, r = _hnf_divmod(h, c)
        if any(r):
            return None
        ycols.append({k: x for k, x in enumerate(y) if x})
    # column j of Y holds the coordinates of B's column j on the pivot columns of H
    x = u @ IntMatrix._wrap(ycols, b.cols, a.cols).transpose()
    if a @ x != b:
        raise InternalInvariantError("solve_columns verification failed")
    return x


@st.composite
def solve_inputs(draw, solvable):
    """(A, B): A from snf_inputs and B == A @ X0 for a drawn X0, followed by
    one to three drawn columns unless solvable."""
    a = draw(snf_inputs(max_dim=7))
    kind = draw(st.sampled_from(["dense", "mostly zero", "unit columns"]))
    k = draw(st.integers(0, 4))
    b = a @ IntMatrix(draw(entry_rows(a.cols, k, kind, bound=50)), shape=(a.cols, k))
    if not solvable:
        k = draw(st.integers(1, 3))
        b = IntMatrix.hstack(b, IntMatrix(draw(entry_rows(a.rows, k, kind, bound=6)), shape=(a.rows, k)))
    return a, b


class TestSolveOracle:
    """The one-pass solve returns exactly what the column-by-column solve did."""

    @given(solve_inputs(solvable=True))
    @settings(max_examples=200, deadline=None)
    def test_solvable_right_hand_sides(self, ab):
        a, b = ab
        got = solve_columns(a, b)
        assert got is not None and got == _columnwise_solve_reference(a, b)
        assert a @ got == b
        assert_public_form(got)

    @given(solve_inputs(solvable=False))
    @settings(max_examples=300, deadline=None)
    def test_random_right_hand_sides(self, ab):
        a, b = ab
        got = solve_columns(a, b)
        assert got == _columnwise_solve_reference(a, b)
        if got is not None:
            assert_public_form(got)

    @given(snf_inputs())
    @settings(max_examples=200, deadline=None)
    def test_lattice_basis_is_the_dense_hnf(self, a):
        h = _dense_hnf_reference(a)[0]
        rank = sum(1 for c in h.columns() if any(c))
        lat = Lattice(a.rows, a)
        assert lat.basis == h.submatrix(range(a.rows), range(rank))
        assert_public_form(lat.basis)
        assert lat.pivot_rows == tuple(next(i for i in range(a.rows) if h[i, j]) for j in range(rank))
        assert column_rank(a) == rank


class TestSolveAndInverse:
    def test_solvable(self):
        a = mat([[2, 0], [0, 3]])
        x = solve_columns(a, mat([[4], [9]]))
        assert x == mat([[2], [3]])

    def test_unsolvable_divisibility(self):
        assert solve_columns(mat([[2, 0], [0, 3]]), mat([[3], [3]])) is None

    def test_unsolvable_out_of_span(self):
        assert solve_columns(mat([[1], [1]]), mat([[1], [2]])) is None

    def test_underdetermined_picks_integral(self):
        a = mat([[2, 3]])
        x = solve_columns(a, mat([[1]]))
        assert x is not None and a @ x == mat([[1]])

    def test_inverse(self):
        u = mat([[1, 1], [0, 1]])
        assert inv_unimodular(u) == mat([[1, -1], [0, 1]])
        with pytest.raises(PreconditionError):
            inv_unimodular(mat([[2, 0], [0, 1]]))


class TestCharpoly:
    def test_swap(self):
        assert charpoly(mat([[0, 1], [1, 0]])) == (-1, 0, 1)

    def test_order_three_rotation(self):
        assert charpoly(mat([[0, -1], [1, -1]])) == (1, 1, 1)

    def test_companion(self):
        # companion matrix of x^3 - 2x + 5
        c = mat([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
        assert charpoly(c) == (5, -2, 0, 1)

    def test_det_consistency(self):
        a = mat([[3, 1, 0], [1, -2, 4], [0, 5, 1]])
        cp = charpoly(a)
        assert cp[0] == (-1) ** 3 * det(a)


class TestLattice:
    def test_membership(self):
        lat = Lattice.spanned_by([(2, 0), (1, 1)], ambient=2)
        assert lat.member((3, 1))
        assert lat.member((0, 2))
        assert not lat.member((1, 0))
        assert lat.coords((3, 1)) is not None

    def test_equality_is_subgroup_equality(self):
        a = Lattice.spanned_by([(2, 0), (1, 1)], ambient=2)
        b = Lattice.spanned_by([(1, 1), (-1, 1)], ambient=2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Lattice.spanned_by([(1, 0), (0, 2)], ambient=2)

    def test_sum_and_intersection(self):
        a = Lattice.spanned_by([(2, 0), (0, 1)], ambient=2)
        b = Lattice.spanned_by([(1, 0), (0, 3)], ambient=2)
        assert a + b == Lattice.full(2)
        assert a.intersect(b) == Lattice.spanned_by([(2, 0), (0, 3)], ambient=2)

    def test_intersection_with_zero(self):
        z = Lattice(3)
        assert Lattice.full(3).intersect(z) == z

    def test_index(self):
        assert Lattice.spanned_by([(2, 0), (0, 3)], ambient=2).index() == 6
        with pytest.raises(PreconditionError):
            Lattice.spanned_by([(2, 0)], ambient=2).index()

    def test_transform(self):
        shear = mat([[1, 1], [0, 1]])
        lat = Lattice.spanned_by([(2, 0), (0, 2)], ambient=2)
        assert lat.transform(shear) == Lattice.spanned_by([(2, 0), (2, 2)], ambient=2)

    def test_contains(self):
        big = Lattice.spanned_by([(1, 1), (0, 2)], ambient=2)
        small = Lattice.spanned_by([(2, 2), (0, 4)], ambient=2)
        assert big.contains(small)
        assert not small.contains(big)

    @given(small_matrices(max_dim=4, max_entry=6))
    @settings(max_examples=80, deadline=None)
    def test_coords_roundtrip(self, a):
        lat = Lattice(a.rows, a)
        rng = random.Random(7)
        if lat.rank == 0:
            return
        coeffs = [rng.randint(-5, 5) for _ in range(lat.rank)]
        v = lat.basis.apply(coeffs)
        got = lat.coords(v)
        assert got == tuple(coeffs)


class TestQuotientInvariants:
    def test_finite(self):
        q = quotient_invariants(2, Lattice.spanned_by([(2, 0), (0, 4)], ambient=2))
        assert q == QuotientInvariants((2, 4), 0)
        assert q.order() == 8
        assert q.describe() == "Z/2 x Z/4"

    def test_mixed(self):
        q = quotient_invariants(2, Lattice.spanned_by([(2, 0)], ambient=2))
        assert q == QuotientInvariants((2,), 1)
        with pytest.raises(PreconditionError):
            q.order()

    def test_trivial(self):
        q = quotient_invariants(2, Lattice.full(2))
        assert q.is_trivial()
        assert q.describe() == "0"

    def test_between_proper_lattices(self):
        top = Lattice.spanned_by([(2, 0), (0, 1)], ambient=2)
        bottom = Lattice.spanned_by([(4, 0), (0, 3)], ambient=2)
        # top/bottom has coordinate matrix diag(2, 3), i.e. the group Z/6
        assert quotient_invariants(top, bottom) == QuotientInvariants((6,), 0)

    def test_non_containment_rejected(self):
        with pytest.raises(PreconditionError):
            quotient_invariants(
                Lattice.spanned_by([(2, 0)], ambient=2),
                Lattice.spanned_by([(1, 0)], ambient=2),
            )

    def test_invariant_factor_chain_not_primary(self):
        # Z/2 x Z/2 x Z/4, not the primary decomposition ordering
        sub = Lattice.spanned_by([(2, 0, 0), (0, 2, 0), (0, 0, 4)], ambient=3)
        assert quotient_invariants(3, sub).torsion == (2, 2, 4)


@st.composite
def lattice_and_map(draw):
    """A lattice L in Z^n (possibly zero) and a map A: Z^k -> Z^n, all small."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    entries = st.integers(-3, 3)
    gens = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3))
    rows = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    return Lattice.spanned_by(gens, ambient=n), IntMatrix(rows)


@st.composite
def full_rank_lattices(draw, n=3):
    """A full-rank lattice of Z^n: a nonsingular generator matrix plus extra vectors."""
    entries = st.integers(-4, 4)
    cols = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n + 2))
    lat = Lattice.spanned_by(cols, ambient=n)
    assume(lat.rank == n)
    return lat


@st.composite
def sublattice_triples(draw):
    """Lattices L1, L2, L3 of Z^n (any rank) with L2 = L1 @ C inside L1."""
    n = draw(st.integers(1, 4))
    vectors = st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=n + 1)
    l1 = Lattice.spanned_by(draw(vectors), ambient=n)
    l3 = Lattice.spanned_by(draw(vectors), ambient=n)
    k = draw(st.integers(0, 3))
    c = draw(entry_rows(l1.rank, k, draw(KINDS), bound=3))
    return l1, Lattice(n, l1.basis @ IntMatrix(c, shape=(l1.rank, k))), l3


class TestPreimageOracle:
    """Lattice.preimage and intersect against membership and the lattice laws."""

    @given(lattice_and_map())
    @settings(max_examples=80, deadline=None)
    def test_membership_on_a_box(self, case):
        lat, a = case
        pre = lat.preimage(a)
        for w in itertools.product(range(-2, 3), repeat=a.cols):
            assert pre.member(w) == lat.member(a.apply(w))

    @given(lattice_and_map())
    @settings(max_examples=80, deadline=None)
    def test_contains_the_kernel(self, case):
        lat, a = case
        assert lat.preimage(a).contains(kernel_basis(a))

    def test_wrong_codomain_rejected(self):
        with pytest.raises(PreconditionError):
            Lattice.full(2).preimage(IntMatrix.identity(3))

    @given(full_rank_lattices(), full_rank_lattices())
    @settings(max_examples=60, deadline=None)
    def test_second_isomorphism_law(self, l1, l2):
        # [L1 + L2 : L2] == [L1 : L1 cap L2], and the quotient groups agree
        total, meet = l1 + l2, l1.intersect(l2)
        assert l2.index() * l1.index() == total.index() * meet.index()
        assert quotient_invariants(total, l2) == quotient_invariants(l1, meet)
        # the index law again, the orders read off snf, the indices off the HNF pivots
        order = quotient_invariants(total, l2).order()
        assert order * total.index() == l2.index()
        assert order * l1.index() == meet.index()

    @given(sublattice_triples())
    @settings(max_examples=80, deadline=None)
    def test_modular_law(self, case):
        # L1 cap (L2 + L3) == L2 + (L1 cap L3) whenever L2 <= L1
        l1, l2, l3 = case
        assert l1.contains(l2)
        assert l1.intersect(l2 + l3) == l2 + l1.intersect(l3)


def _two_step_kernel_reference(a: IntMatrix) -> IntMatrix:
    """Columns of the HNF transform spanning the integer kernel of a (not reduced):
    the first of the two eliminations that kernel_basis, preimage and intersect
    ran before one stacked elimination replaced them."""
    h, u = hnf(a)
    rank = max((max(row) + 1 for row in h._ent if row), default=0)  # the nonzero columns lead
    return u.submatrix(range(a.cols), range(rank, a.cols))


def _two_step_preimage_gens(lat: Lattice, mat: IntMatrix) -> IntMatrix:
    # w with mat w in lat are the heads of the kernel of [mat | -basis]
    ker = _two_step_kernel_reference(IntMatrix.hstack(mat, -lat.basis))
    return IntMatrix._wrap(ker._ent[: mat.cols], mat.cols, ker.cols)


def _two_step_preimage(lat: Lattice, mat: IntMatrix) -> Lattice:
    return Lattice(mat.cols, _two_step_preimage_gens(lat, mat))


def _two_step_intersect(l1: Lattice, l2: Lattice) -> Lattice:
    if l1.is_zero() or l2.is_zero():
        return Lattice(l1.ambient)
    return Lattice(l1.ambient, l2.basis @ _two_step_preimage_gens(l1, l2.basis))


@st.composite
def generator_matrices(draw, m, max_cols=6):
    """An m-row matrix of up to max_cols columns, any kind, entries up to 2^40."""
    k = draw(st.integers(0, max_cols))
    return IntMatrix(draw(entry_rows(m, k, draw(KINDS), bound=2**40)), shape=(m, k))


@st.composite
def lattice_pairs(draw, max_dim=6):
    """(L, A): a lattice of Z^m of any rank and a matrix with m rows."""
    m = draw(st.integers(0, max_dim))
    return Lattice(m, draw(generator_matrices(m))), draw(generator_matrices(m))


EDGE_MATRICES = [
    IntMatrix.zeros(0, 0),
    IntMatrix.zeros(0, 3),
    IntMatrix.zeros(3, 0),
    IntMatrix.zeros(2, 3),
    IntMatrix.identity(3),
    IntMatrix([[2**40, -(2**40) + 1, 3], [5, 7, -(2**40)]]),
]


class TestStackedEliminationOracle:
    """kernel_basis, preimage and intersect from one stacked elimination are
    exactly the lattices of the kernel-of-U path they replaced."""

    @staticmethod
    def assert_same(got: Lattice, want: Lattice):
        assert got == want
        assert got.pivot_rows == want.pivot_rows
        assert_public_form(got.basis)

    @given(snf_inputs())
    @settings(max_examples=100, deadline=None)
    def test_kernel_basis(self, a):
        self.assert_same(kernel_basis(a), Lattice(a.cols, _two_step_kernel_reference(a)))

    @pytest.mark.parametrize("a", EDGE_MATRICES, ids=repr)
    def test_kernel_basis_edge_shapes(self, a):
        want = Lattice(a.cols, _two_step_kernel_reference(a))
        self.assert_same(kernel_basis(a), want)
        assert want.rank == a.cols - column_rank(a)

    @given(lattice_pairs())
    @settings(max_examples=100, deadline=None)
    def test_preimage(self, case):
        lat, a = case
        self.assert_same(lat.preimage(a), _two_step_preimage(lat, a))

    @pytest.mark.parametrize("a", EDGE_MATRICES, ids=repr)
    def test_preimage_edge_shapes(self, a):
        for lat in (Lattice(a.rows), Lattice.full(a.rows), Lattice(a.rows, 2 * a)):
            self.assert_same(lat.preimage(a), _two_step_preimage(lat, a))

    @given(st.integers(0, 6).flatmap(lambda m: st.tuples(generator_matrices(m), generator_matrices(m))))
    @settings(max_examples=100, deadline=None)
    def test_intersect(self, gens):
        g1, g2 = gens
        l1, l2 = Lattice(g1.rows, g1), Lattice(g2.rows, g2)
        self.assert_same(l1.intersect(l2), _two_step_intersect(l1, l2))
        self.assert_same(l2.intersect(l1), l1.intersect(l2))

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_intersect_with_zero_and_full(self, m):
        zero, full = Lattice(m), Lattice.full(m)
        for a, b in [(zero, zero), (zero, full), (full, zero), (full, full)]:
            self.assert_same(a.intersect(b), _two_step_intersect(a, b))

    @pytest.mark.parametrize(
        "spec, p",
        [("triv(4)", 3), ("cyclicR(2,1)", 2), ("cyclicR(2,1)", 3), ("cyclicR(2,1)+triv(2)", 2),
         ("cyclicR(3,1)", 2), ("cyclicR(2,2)", 2)],
    )
    def test_presentation_kernels(self, spec, p):
        m = build(parse_modspec(spec), p)
        pres = build_aug(m)
        a = IntMatrix.hstack(pres.pi_matrix, -m.rel.basis)
        self.assert_same(kernel_basis(a), Lattice(a.cols, _two_step_kernel_reference(a)))
        self.assert_same(m.rel.preimage(pres.pi_matrix), _two_step_preimage(m.rel, pres.pi_matrix))
        twist = Lattice(pres.size, pres.action - IntMatrix.identity(pres.size))
        self.assert_same(pres.N.intersect(twist), _two_step_intersect(pres.N, twist))


@st.composite
def lattice_solve_inputs(draw):
    """(L, B): a lattice from snf_inputs and B == L.basis @ X0, followed by
    zero to two drawn columns that need not lie in L."""
    a = draw(snf_inputs(max_dim=7))
    lat = Lattice(a.rows, a)
    k = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["dense", "mostly zero", "unit columns"]))
    b = lat.basis @ IntMatrix(draw(entry_rows(lat.rank, k, kind, bound=50)), shape=(lat.rank, k))
    extra = draw(st.integers(0, 2))
    b = IntMatrix.hstack(b, IntMatrix(draw(entry_rows(a.rows, extra, kind, bound=6)), shape=(a.rows, extra)))
    return lat, b


class TestLatticeSolveOracle:
    """Lattice.solve needs no elimination and returns exactly solve_columns' X."""

    @given(lattice_solve_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_solve_columns(self, case):
        lat, b = case
        got = lat.solve(b)
        assert got == solve_columns(lat.basis, b)
        if got is not None:
            assert lat.basis @ got == b
            assert_public_form(got)

    def test_unsolvable(self):
        lat = Lattice.spanned_by([(2, 0), (0, 3)], ambient=2)
        assert lat.solve(mat([[4, 1], [9, 0]])) is None
        assert lat.solve(mat([[4], [9]])) == mat([[2], [3]])
        assert solve_columns(lat.basis, mat([[4, 1], [9, 0]])) is None

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_zero_lattice(self, m):
        zero = Lattice(m)
        b = IntMatrix.zeros(m, 2)
        assert zero.solve(b) == solve_columns(zero.basis, b) == IntMatrix.zeros(0, 2)
        if m:
            b = IntMatrix.unit_columns(m, [m - 1])
            assert zero.solve(b) is None
            assert solve_columns(zero.basis, b) is None

    def test_wrong_space_rejected(self):
        with pytest.raises(PreconditionError):
            Lattice.full(2).solve(IntMatrix.identity(3))


class TestHermiteConstructor:
    """Lattice._from_hermite takes a canonical basis as it is and refuses any other."""

    @given(small_matrices(max_dim=6))
    @settings(max_examples=200, deadline=None)
    def test_accepts_every_canonical_basis(self, a):
        lat = Lattice(a.rows, a)
        got = Lattice._from_hermite(a.rows, lat.basis)
        assert got == lat
        assert got.pivot_rows == lat.pivot_rows

    @pytest.mark.parametrize(
        "rows,why",
        [
            ([[1, 0], [1, -2]], "negative pivot"),
            ([[1, 1], [0, 2]], "entry right of a pivot"),
            ([[1, 0], [3, 2]], "entry left of a pivot not reduced"),
            ([[1, 0], [-1, 2]], "negative entry left of a pivot"),
            ([[0, 1], [1, 0]], "pivots out of order"),
            ([[1, 0], [0, 0]], "zero column"),
            ([[1, 0, 0], [0, 0, 1], [0, 1, 0]], "a later column starts before the next pivot"),
        ],
    )
    def test_refuses_other_shapes(self, rows, why):
        with pytest.raises(InternalInvariantError, match="Hermite form"):
            Lattice._from_hermite(len(rows), mat(rows))

    def test_refuses_the_wrong_ambient(self):
        with pytest.raises(PreconditionError):
            Lattice._from_hermite(3, IntMatrix.identity(2))


@st.composite
def square_matrices(draw, max_dim=5):
    n = draw(st.integers(0, max_dim))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -2])
    return IntMatrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)), shape=(n, n))


class TestIsUnimodular:
    """The peeling determinant test against Lattice(n, C) == Lattice.full(n)."""

    @given(square_matrices())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_full_lattice(self, c):
        assert is_unimodular(c) == (Lattice(c.rows, c) == Lattice.full(c.rows))

    @given(st.integers(1, 7), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_unimodular_det_two_and_singular(self, n, seed):
        rng = random.Random(seed)
        u = random_unimodular(rng, n)
        assert is_unimodular(u)
        rows = u.tolist()
        i = rng.randrange(n)
        doubled = [[2 * x for x in row] if k == i else row for k, row in enumerate(rows)]
        assert not is_unimodular(mat(doubled))
        assert abs(det(mat(doubled))) == 2
        if n > 1:
            j = (i + 1) % n
            repeated = [rows[j] if k == i else row for k, row in enumerate(rows)]
            assert not is_unimodular(mat(repeated))
            assert det(mat(repeated)) == 0

    def test_non_square_and_empty(self):
        assert not is_unimodular(IntMatrix.identity(3).submatrix(range(3), range(2)))
        assert is_unimodular(IntMatrix.zeros(0, 0))


def _seeded_square_matrices(seed: int):
    """Square matrices of size 0-8 from random.Random(seed): sparse draws from
    the peeling-friendly entries, unimodular ones with a row scaled or copied
    over another (singular), and dense draws."""
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randrange(9)
        yield mat([[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n)] for _ in range(n)])
        if n:
            rows = random_unimodular(rng, n).tolist()
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i] = [rng.choice([2, -3, 5]) * x for x in rows[i]] if i == j else list(rows[j])
            yield mat(rows)
            yield mat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])


class TestAbsDet:
    """The peel-then-Hermite |det| against the Bareiss det."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bareiss(self, seed):
        dets = []
        for a in _seeded_square_matrices(seed):
            dets.append(abs(det(a)))
            assert abs_det(a) == dets[-1]
        assert 0 in dets and 1 in dets and max(dets) > 1

    def test_refuses_a_non_square_matrix(self):
        with pytest.raises(PreconditionError, match="non-square"):
            abs_det(IntMatrix.identity(3).submatrix(range(3), range(2)))


class TestSnfCertificate:
    """_certify_snf holds for every snf and fails on a tampered result."""

    A = mat([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])

    def test_accepts_the_smith_form(self):
        _certify_snf(self.A, snf(self.A))

    def test_one_entry_of_u_inv_changed_raises(self):
        res = snf(self.A)
        rows = res.u_inv.tolist()
        rows[0][0] += 1
        bad = dataclasses.replace(res, u_inv=mat(rows))
        with pytest.raises(InternalInvariantError, match="inverse transform"):
            _certify_snf(self.A, bad)

    def test_two_columns_of_v_swapped_raises(self):
        res = snf(self.A)
        bad = dataclasses.replace(res, v=res.v.submatrix(range(3), [1, 0, 2]))
        with pytest.raises(InternalInvariantError, match="snf transform identity"):
            _certify_snf(self.A, bad)
