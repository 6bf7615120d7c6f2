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
    xgcd,
)
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


class TestXgcd:
    @pytest.mark.parametrize(
        "a,b",
        [(12, 18), (-12, 18), (0, 5), (5, 0), (0, 0), (17, 1), (-4, -6), (240, 46)],
    )
    def test_bezout(self, a, b):
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


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
    """Smith normal form with both transforms, deterministic pivoting."""
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

    res = SnfResult(
        IntMatrix(u, shape=(m, m)), IntMatrix(s, shape=(m, n)), IntMatrix(v, shape=(n, n))
    )
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
