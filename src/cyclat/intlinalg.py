"""Exact linear algebra over the integers.

Matrices are immutable and bignum-exact; there is not a float anywhere in
this package.  The normal forms (column-style Hermite, Smith) are computed
with deterministic pivoting so that repeated runs, and the golden values
frozen in the tests, agree byte for byte.

An ``IntMatrix`` stores each row as ``{column: nonzero entry}``, the one
format every kernel reads and writes; the package's matrices (permutation
actions, unit-column embeddings, presentation kernels, gadget boundary
matrices) have a few nonzero entries per row.  All updates go through the
one ``_addmul(out, row, c)``, ``out += c * row``: ``+`` and ``-``, ``A @ B``
(Gustavson's row-by-row product: row i of the result sums A[i, k] times
row k of B), ``snf`` on the rows of S and U and the columns of V and U^-1,
and the Hermite elimination on A's columns: ``hnf`` stacks them on the
identity so one column operation builds H and U together, while ``Lattice``
and ``column_rank``, which read H alone, leave the identity out; ``hnf``'s U
serves only ``solve_columns`` and ``inv_unimodular``.  Each costs in
proportion to the nonzero entries it meets, not to the size of the matrix.
A check that reads a product once (the ``snf`` and ``Lattice.solve``
certificates) takes its rows one at a time from ``product_rows``, so no
product is held whole and the row dictionaries do not pile up between
collections of the cyclic garbage collector.

Conventions that the rest of the package leans on:

* ``hnf`` is a *column* Hermite form ``H = A @ U``: pivot columns first,
  pivots positive, pivot rows strictly increasing, entries to the left of a
  pivot in its row reduced into ``[0, pivot)``.  ``H`` with zero columns
  dropped is the canonical basis of the column span, which is what makes
  ``Lattice`` equality decidable by comparing bases.
* ``snf`` returns ``U @ A @ V == S``, and U^-1 from the same elimination,
  with nonnegative diagonal and each diagonal entry dividing the next.  Its
  pivot at step k is the smallest |entry| of the remaining block, ties going
  to the first in row-major order; the transforms, and with them the K0
  coordinates of the graph layer, depend on this rule and on the order of
  the row and column operations that follow it, so both are fixed.  The
  certificate checks ``U^-1 @ U == I`` first and then ``A @ V == U^-1 @ S``,
  which for the square U is the same as ``U @ A @ V == S`` and never forms
  the product of U, often the densest of the four, with A.
* ``Lattice.preimage`` is the one home of ``{w : A w in L}``, read off a
  single stacked elimination: fixed submodules, norm kernels, group
  relations, ``kernel_basis`` and ``Lattice.intersect``.  A basis known in
  closed form enters through ``Lattice._from_hermite``, which checks the
  canonical shape in one pass and runs no elimination; its caller certifies
  that the basis spans the right lattice (the presentation kernels: by
  containment plus index).
* ``abs_det`` peels rows with one nonzero entry and runs one Hermite
  elimination of the rest.  Basis changes and spanning sets are checked by
  |det| (1, or a known index) rather than by eliminating the new basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Optional, Sequence

from .errors import InternalInvariantError, PreconditionError


def _addmul(out: dict[int, int], row: dict[int, int], c: int) -> None:
    """out += c * row, for c != 0 and vectors held as {index: nonzero entry}."""
    for j, x in row.items():
        y = out.get(j, 0) + c * x
        if y:
            out[j] = y
        else:
            del out[j]


class IntMatrix:
    """Immutable integer matrix, each row held as {column: nonzero entry}.

    No zero is ever stored, so two matrices of one shape are equal exactly
    when their row dictionaries are, and ``hash`` reads the same items.
    Rows handed to ``_wrap`` are owned by the matrix and never mutated
    afterwards; matrices may share rows, and every kernel that updates rows
    in place works on its own copies.

    Zero-row and zero-column shapes are legal: the shape is carried
    explicitly, so e.g. a basis of the zero lattice in Z^n is an n x 0
    matrix rather than a special case.
    """

    __slots__ = ("_ent", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable[int]], shape: Optional[tuple[int, int]] = None):
        ent = tuple(tuple(int(x) for x in row) for row in entries)
        if shape is None:
            m = len(ent)
            n = len(ent[0]) if ent else 0
        else:
            m, n = shape
            if len(ent) != m:
                raise PreconditionError(f"expected {m} rows, got {len(ent)}")
        if any(len(row) != n for row in ent):
            raise PreconditionError("ragged rows")
        rows = tuple({j: x for j, x in enumerate(row) if x} for row in ent)
        object.__setattr__(self, "_ent", rows)
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "cols", n)

    @classmethod
    def _wrap(cls, rows: Iterable[dict[int, int]], m: int, n: int) -> "IntMatrix":
        """The m x n matrix on m rows {column < n: nonzero int}, computed in this module.

        Skips the int() coercion and the shape checks that caller data goes
        through, and takes the rows over without copying them.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "_ent", tuple(rows))
        object.__setattr__(out, "rows", m)
        object.__setattr__(out, "cols", n)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls._wrap([{} for _ in range(m)], m, n)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.unit_columns(n, range(n))

    @classmethod
    def diag(cls, values: Sequence[int]) -> "IntMatrix":
        n = len(values)
        return cls(tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def unit_columns(cls, rows: int, targets: Sequence[int]) -> "IntMatrix":
        """The matrix whose column j is the unit vector e_targets[j] of Z^rows.

        Permutation matrices and the embeddings of one element basis into
        another are all of this kind.
        """
        out = [{} for _ in range(rows)]
        for j, i in enumerate(targets):
            out[i][j] = 1
        return cls._wrap(out, rows, len(targets))

    @classmethod
    def from_cols(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        columns = [tuple(c) for c in columns]
        if rows is None:
            if not columns:
                raise PreconditionError("from_cols with no columns needs an explicit row count")
            rows = len(columns[0])
        if any(len(c) != rows for c in columns):
            raise PreconditionError("ragged columns")
        # compress walks the zeros at C speed, so only nonzero entries reach Python
        cols = [{i: int(c[i]) for i in compress(range(rows), c)} for c in columns]
        return cls._wrap(cols, len(cols), rows).transpose()

    @classmethod
    def hstack(cls, *mats: "IntMatrix") -> "IntMatrix":
        if not mats:
            raise PreconditionError("hstack of nothing")
        if any(a.rows != mats[0].rows for a in mats):
            raise PreconditionError("hstack row mismatch")
        return cls._tile(mats, diagonal=False)

    @classmethod
    def vstack(cls, *mats: "IntMatrix") -> "IntMatrix":
        if not mats:
            raise PreconditionError("vstack of nothing")
        n = mats[0].cols
        if any(a.cols != n for a in mats):
            raise PreconditionError("vstack column mismatch")
        return cls._wrap((row for a in mats for row in a._ent), sum(a.rows for a in mats), n)

    @classmethod
    def block_diag(cls, *mats: "IntMatrix") -> "IntMatrix":
        return cls._tile(mats, diagonal=True)

    @classmethod
    def _tile(cls, mats: Sequence["IntMatrix"], diagonal: bool) -> "IntMatrix":
        """mats side by side: each below the previous one if diagonal, else level with it."""
        m = sum(a.rows for a in mats) if diagonal else mats[0].rows
        out = [{} for _ in range(m)]
        i0 = j0 = 0
        for a in mats:
            for i, row in enumerate(a._ent, i0):
                out[i].update((j0 + j, x) for j, x in row.items())
            if diagonal:
                i0 += a.rows
            j0 += a.cols
        return cls._wrap(out, m, j0)

    # -- accessors ------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._ent[i].get(range(self.cols)[j], 0)

    def row(self, i: int) -> tuple[int, ...]:
        out = [0] * self.cols
        for j, x in self._ent[i].items():
            out[j] = x
        return tuple(out)

    def nonzeros(self, i: int):
        """The nonzero entries of row i, as (column, entry) pairs."""
        return self._ent[i].items()

    def col(self, j: int) -> tuple[int, ...]:
        j = range(self.cols)[j]
        return tuple(row.get(j, 0) for row in self._ent)

    def columns(self) -> list[tuple[int, ...]]:
        return list(self.transpose().entries())

    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.row, range(self.rows)))

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self.entries()]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        """Rows row_idx and columns col_idx, in that order; indices may repeat."""
        cols = [range(self.cols)[j] for j in col_idx]
        pos = {j: k for k, j in enumerate(cols)}
        out = []
        for i in row_idx:
            row = self._ent[i]
            if len(pos) == len(cols) and len(row) < len(cols):  # no repeats: walk the row
                out.append({pos[j]: x for j, x in row.items() if j in pos})
            else:
                out.append({k: row[j] for k, j in enumerate(cols) if j in row})
        return IntMatrix._wrap(out, len(out), len(cols))

    def transpose(self) -> "IntMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._ent):
            for j, x in row.items():
                out[j][i] = x
        return IntMatrix._wrap(out, self.cols, self.rows)

    def is_zero(self) -> bool:
        return not any(self._ent)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, -1)

    def _plus(self, other: "IntMatrix", c: int) -> "IntMatrix":
        """self + c * other."""
        if self.rows != other.rows or self.cols != other.cols:
            raise PreconditionError("shape mismatch")
        out = [dict(row) for row in self._ent]
        for acc, row in zip(out, other._ent):
            _addmul(acc, row, c)
        return IntMatrix._wrap(out, self.rows, self.cols)

    def __neg__(self) -> "IntMatrix":
        return -1 * self

    def __mul__(self, c: int) -> "IntMatrix":
        if not isinstance(c, int):
            return NotImplemented
        c = int(c)  # a plain int, so every product below is one too
        rows = [{j: c * x for j, x in row.items()} if c else {} for row in self._ent]
        return IntMatrix._wrap(rows, self.rows, self.cols)

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return IntMatrix._wrap(list(self.product_rows(other)), self.rows, other.cols)

    def product_rows(self, other: "IntMatrix"):
        """The rows of self @ other as {column: nonzero entry}, one at a time.

        Row i sums self[i, k] times row k of other.  A check that reads the
        product once goes through these, so the whole product is never held.
        """
        if self.cols != other.rows:
            raise PreconditionError(
                f"shape mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})"
            )
        brows = other._ent
        for row in self._ent:
            acc = {}
            for k, a in row.items():
                if acc:
                    _addmul(acc, brows[k], a)
                else:  # the first term (or all cancelled so far): a scaled copy
                    acc = dict(brows[k]) if a == 1 else {j: a * x for j, x in brows[k].items()}
            yield acc

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product as a plain tuple."""
        if len(v) != self.cols:
            raise PreconditionError("vector length mismatch")
        out = []
        for row in self._ent:
            acc = 0
            for j, x in row.items():
                acc += x * v[j]
            out.append(acc)
        return tuple(out)

    def pow(self, k: int) -> "IntMatrix":
        if not self.is_square():
            raise PreconditionError("pow of a non-square matrix")
        if k < 0:
            raise PreconditionError("negative power")
        if k == 0:
            return IntMatrix.identity(self.rows)
        out = self
        for bit in bin(k)[3:]:
            out = out @ out
            if bit == "1":
                out = out @ self
        return out

    def trace(self) -> int:
        if not self.is_square():
            raise PreconditionError("trace of a non-square matrix")
        return sum(row.get(i, 0) for i, row in enumerate(self._ent))

    # -- plumbing ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._ent == other._ent

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self._ent)))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix.zeros({self.rows}, {self.cols})"
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries())
        return f"IntMatrix([{body}])"


# -- Hermite form --------------------------------------------------------------


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form: (H, U) with H == A @ U, U unimodular.

    Pivot columns come first; each pivot is positive, sits strictly below
    the previous pivot's row, and the entries to its left in its row are
    reduced into [0, pivot).  Trailing columns of H are zero.  H is the
    canonical basis matrix of the column span.

    The elimination runs on A's columns stacked on the identity's, so each
    column operation builds U below H.
    """
    m, n = a.rows, a.cols
    cols = [{**col, m + j: 1} for j, col in enumerate(a.transpose()._ent)]
    _hermite_columns(cols, m)
    stacked = IntMatrix._wrap(cols, n, m + n).transpose()._ent
    return IntMatrix._wrap(stacked[:m], m, n), IntMatrix._wrap(stacked[m:], n, n)


def _hermite_columns(cols: list[dict[int, int]], m: int) -> list[int]:
    """Column Hermite form of the columns {row: entry}, in place; returns the pivot rows.

    Pivots only on rows < m; rows from m on just follow the column operations.
    Pivot of row i: the smallest |entry| in the columns from the current pivot
    on (ties: the first); the others are reduced by it until it is alone.  A
    unit pivot is found by the first |entry| 1 and leaves it alone in one pass.
    """
    n = len(cols)
    pivot_rows = []
    for i in range(m):
        piv = len(pivot_rows)
        if piv == n:
            break
        live = [j for j in range(piv, n) if i in cols[j]]
        if not live:
            continue
        while True:
            j0 = live[0]
            a = abs(cols[j0][i])
            if a != 1:
                for j in live:
                    b = abs(cols[j][i])
                    if b < a:
                        j0, a = j, b
                        if b == 1:
                            break
            if len(live) == 1:
                break
            for j in live:
                if j != j0:
                    q = cols[j][i] // cols[j0][i]
                    if q:
                        _addmul(cols[j], cols[j0], -q)
            if a == 1:
                break
            # columns outside live stay zero in row i, and j0 stays nonzero
            live = [j for j in live if i in cols[j]]
        cols[piv], cols[j0] = cols[j0], cols[piv]
        if cols[piv][i] < 0:
            cols[piv] = {r: -x for r, x in cols[piv].items()}
        p = cols[piv][i]
        for j in range(piv):
            if i in cols[j]:
                q = cols[j][i] // p
                if q:
                    _addmul(cols[j], cols[piv], -q)
        pivot_rows.append(i)
    return pivot_rows


def _hnf_divmod(h: IntMatrix, v: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with v == H q + r, by floor division down the pivot rows of H.

    r lies in [0, pivot) at each pivot row of the column Hermite form H, so
    it is zero exactly when v is in the column span, and q is then v's
    coordinate vector.  Row i has entries only in the columns pivoted at or
    above it, so one pass down the rows suffices.
    """
    q, r = [], []
    for x, row in zip(v, h._ent):
        k = len(q)
        for j, c in row.items():
            if j != k:
                x -= q[j] * c
        if k in row:
            d = x // row[k]
            q.append(d)
            x -= d * row[k]
        r.append(x)
    return q, r


def _hermite_solve(h: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Y with H @ Y == B for a column Hermite form H, or None.

    One forward substitution down the rows of H for all of B's columns: row k
    of Y, {column of B: value}, is an exact division at the k-th pivot row,
    and every other row must leave B's row zero.
    """
    y = []
    for hrow, brow in zip(h._ent, b._ent):
        k = len(y)
        rest = dict(brow)
        for j, c in hrow.items():
            if j != k:
                _addmul(rest, y[j], -c)
        if k in hrow:
            p = hrow[k]
            if p != 1:
                if any(x % p for x in rest.values()):
                    return None
                rest = {col: x // p for col, x in rest.items()}
            y.append(rest)
        elif rest:
            return None
    return IntMatrix._wrap(y + [{} for _ in range(h.cols - len(y))], h.cols, b.cols)


def _preimage_columns(gens: IntMatrix, mat: IntMatrix) -> IntMatrix:
    """Columns spanning {w : mat @ w in the span L of gens}, read off one Hermite elimination:
    pivoting on the top rows of the columns (mat e_j ; e_j) and (gens ; 0) leaves columns
    with a zero top, where mat w == -g lies in L, and their lower parts span."""
    m, k = gens.rows, mat.cols
    cols = [{**c, m + j: 1} for j, c in enumerate(mat.transpose()._ent)] + list(gens.transpose()._ent)
    rank = len(_hermite_columns(cols, m))
    lower = IntMatrix._wrap(cols[rank:], len(cols) - rank, m + k).transpose()
    return IntMatrix._wrap(lower._ent[m:], k, lower.cols)


def column_rank(a: IntMatrix) -> int:
    return len(_hermite_columns(list(a.transpose()._ent), a.rows))


def abs_det(a: IntMatrix) -> int:
    """|det a| for a square a (PreconditionError otherwise).

    Rows with one nonzero entry are peeled first, as in structured Gaussian
    elimination: expanding along such a row leaves |entry| times the minor
    without its row and column, which may leave more such rows.  One Hermite
    elimination of the rest gives the product of its pivots, or 0 when it
    has fewer pivots than rows.
    """
    n = a.rows
    if a.cols != n:
        raise PreconditionError("determinant of a non-square matrix")
    rows: list = list(a._ent)  # None once peeled; a row is copied before its first change
    copied = [False] * n
    in_col: list[list[int]] = [[] for _ in range(n)]  # the rows holding each column
    single = []
    for i, row in enumerate(rows):
        if len(row) == 1:
            single.append(i)
        for j in row:
            in_col[j].append(i)
    out, left = 1, n
    while single:
        i = single.pop()
        row = rows[i]
        if row is None:
            continue
        if not row:
            return 0  # emptied by the peels
        ((j, x),) = row.items()
        out *= abs(x)
        rows[i] = None
        left -= 1
        for k in in_col[j]:
            rest = rows[k]
            if rest is not None and j in rest:
                if not copied[k]:
                    rest = rows[k] = dict(rest)
                    copied[k] = True
                del rest[j]
                if len(rest) <= 1:
                    single.append(k)
    pos: dict[int, int] = {}  # the columns left, numbered as met
    cols: list[dict[int, int]] = []
    for k, row in enumerate(row for row in rows if row is not None):
        for j, x in row.items():
            if j not in pos:
                pos[j] = len(cols)
                cols.append({})
            cols[pos[j]][k] = x
    if len(cols) != left or len(_hermite_columns(cols, left)) != left:
        return 0
    return out * math.prod(cols[i][i] for i in range(left))


def is_unimodular(a: IntMatrix) -> bool:
    """Whether a is square with determinant +-1."""
    return a.is_square() and abs_det(a) == 1


# -- Smith form ----------------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """U @ A @ V == S, S diagonal with nonnegative entries d_k | d_{k+1}; u_inv @ U == I."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    diag: tuple[int, ...] = field(init=False, repr=False)
    rank: int = field(init=False, repr=False)

    def __post_init__(self):
        diag = tuple(self.s._ent[i].get(i, 0) for i in range(min(self.s.rows, self.s.cols)))
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "rank", sum(1 for d in diag if d != 0))


def _certify_snf(a: IntMatrix, res: SnfResult) -> None:
    """InternalInvariantError unless U^-1 @ U == I and A @ V == U^-1 @ S.

    For the square U the pair is equivalent to U @ A @ V == S with U^-1 the
    inverse of U, and no product forms U @ A, which is dense when U is: S is
    diagonal, so U^-1 @ S only scales columns of U^-1.
    """
    rows = enumerate(res.u_inv.product_rows(res.u))
    if not all(len(row) == 1 and row.get(i) == 1 for i, row in rows):
        raise InternalInvariantError("snf inverse transform identity failed")
    if any(x != y for x, y in zip(a.product_rows(res.v), res.u_inv.product_rows(res.s))):
        raise InternalInvariantError("snf transform identity failed")


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form with both transforms and U's inverse, deterministic pivoting.

    Step k moves the smallest |entry| of the remaining block (ties: the
    first in row-major order) to (k, k), reduces its column by row
    operations and its row by column operations, and repeats until both are
    clear; a pivot that does not divide the rest of the block gets the first
    such row added to its own.  Rows of S and U and columns of V are held as
    {index: nonzero entry}, and ``holds`` keeps the rows of S holding each
    column key, so each of these passes touches the nonzero entries of the
    block and the pivot column's rows are found without a scan.  Columns
    are swapped through the permutation ``order`` instead of moving
    entries.  Each row operation is undone on the columns
    of U^-1 (swap, col_k += q col_i, negate, col_o -= col_k), so U^-1 comes
    out of the same elimination.
    """
    m, n = a.rows, a.cols
    s = [dict(row) for row in a._ent]
    u = [{i: 1} for i in range(m)]
    ui = [{i: 1} for i in range(m)]  # columns of U^-1
    v = [{j: 1} for j in range(n)]  # V column of each column key of s
    order = list(range(n))  # column key at each position of S
    place = list(range(n))  # position of each column key
    # the rows of S holding each column key, as a bit mask: bit i for row i
    holds = [0] * n
    for i, row in enumerate(s):
        for j in row:
            holds[j] |= 1 << i

    def track(i: int, keys) -> None:
        """Record which of these column keys row i of S holds now."""
        row, bit = s[i], 1 << i
        for j in keys:
            if j in row:
                holds[j] |= bit
            else:
                holds[j] &= ~bit

    for k in range(min(m, n)):
        while True:
            # rows k.. hold nothing left of position k and rows above k nothing
            # from it on, so the remaining block is all of rows k..m-1
            best = 0
            for i in range(k, m):
                row = s[i]
                if not row:
                    continue
                low = min(map(abs, row.values()))
                if best and low >= best:
                    continue
                best, bi = low, i
                bt = min(place[j] for j, x in row.items() if abs(x) == low)
                if low == 1:
                    break
            if not best:
                break
            if bi != k:
                s[k], s[bi] = s[bi], s[k]
                u[k], u[bi] = u[bi], u[k]
                ui[k], ui[bi] = ui[bi], ui[k]
                both = [*s[k], *s[bi]]
                track(k, both)
                track(bi, both)
            if bt != k:
                jk, jt = order[k], order[bt]
                order[k], order[bt] = jt, jk
                place[jt], place[jk] = k, bt
            pk = order[k]
            srow = s[k]
            p = srow[pk]
            dirty = False
            pivot_col = [k]  # rows left with a nonzero entry in the pivot column
            # rows above k hold nothing from position k on, and each row
            # operation changes its own row only, so the rows to clear are
            # those below k holding pk now, in increasing order
            below = holds[pk] >> (k + 1)
            while below:
                low = below & -below
                below ^= low
                i = k + low.bit_length()
                q = s[i][pk] // p
                if q:
                    _addmul(s[i], srow, -q)
                    track(i, srow)
                    _addmul(u[i], u[k], -q)
                    _addmul(ui[k], ui[i], q)
                if pk in s[i]:
                    dirty = True
                    pivot_col.append(i)
            for j, x in list(srow.items()):
                if j == pk:
                    continue
                q = x // p
                if q:
                    for i in pivot_col:
                        row = s[i]
                        y = row.get(j, 0) - q * row[pk]
                        if y:
                            row[j] = y
                            holds[j] |= 1 << i
                        else:
                            row.pop(j, None)
                            holds[j] &= ~(1 << i)
                    _addmul(v[j], v[pk], -q)
                if j in srow:
                    dirty = True
            if dirty:
                continue
            if p < 0:
                s[k] = {j: -x for j, x in srow.items()}
                u[k] = {i: -x for i, x in u[k].items()}
                ui[k] = {i: -x for i, x in ui[k].items()}
                p = -p
            # every remaining entry is a multiple of 1, so a unit pivot is final
            offender = None
            if p != 1:
                offender = next((i for i in range(k + 1, m) if any(x % p for x in s[i].values())), None)
            if offender is None:
                break
            _addmul(s[k], s[offender], 1)
            track(k, s[offender])
            _addmul(u[k], u[offender], 1)
            _addmul(ui[offender], ui[k], -1)
        if not best:
            break

    for i, row in enumerate(s):  # each working row gives way to its row of S
        s[i] = {place[j]: x for j, x in row.items()}
    res = SnfResult(
        IntMatrix._wrap(u, m, m),
        IntMatrix._wrap(s, m, n),
        IntMatrix._wrap([v[j] for j in order], n, n).transpose(),
        IntMatrix._wrap(ui, m, m).transpose(),
    )
    _certify_snf(a, res)
    return res


# -- lattices ------------------------------------------------------------------


class Lattice:
    """A subgroup of Z^n, held as a canonical column-HNF basis (H without U).

    Two Lattice objects in the same ambient compare equal iff they are the
    same subgroup, which is what lets the higher layers phrase statements
    like "the twisted image equals the kernel" as plain ==.  Solving against
    the basis needs no elimination: it is already in Hermite form.
    """

    __slots__ = ("ambient", "basis", "_pivot_rows")

    def __init__(self, ambient: int, basis: Optional[IntMatrix] = None):
        if ambient < 0:
            raise PreconditionError("negative ambient dimension")
        if basis is None:
            basis = IntMatrix.zeros(ambient, 0)
        if basis.rows != ambient:
            raise PreconditionError(f"basis has {basis.rows} rows in ambient Z^{ambient}")
        # H without U, so no identity below the columns; H's zero columns are dropped
        cols = list(basis.transpose()._ent)
        pivot_rows = tuple(_hermite_columns(cols, ambient))
        h_t = IntMatrix._wrap(cols[: len(pivot_rows)], len(pivot_rows), ambient)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", h_t.transpose())
        object.__setattr__(self, "_pivot_rows", pivot_rows)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    @classmethod
    def _from_hermite(cls, ambient: int, basis: IntMatrix) -> "Lattice":
        """The lattice whose canonical basis is ``basis``, with no elimination.

        One pass down the rows checks the shape ``Lattice`` would produce:
        every column nonzero, each row either the next column's pivot row
        (pivot positive, entries to its left in [0, pivot), none to its
        right) or a row with entries in pivoted columns only.  A basis of
        any other shape raises InternalInvariantError.
        """
        if basis.rows != ambient:
            raise PreconditionError(f"basis has {basis.rows} rows in ambient Z^{ambient}")
        pivot_rows = []
        for i, row in enumerate(basis._ent):
            k = len(pivot_rows)
            p = row.get(k)
            if p is None:
                ok = all(j < k for j in row)
            else:
                ok = p > 0 and all(j < k and 0 <= x < p for j, x in row.items() if j != k)
                pivot_rows.append(i)
            if not ok:
                raise InternalInvariantError(f"basis is not in Hermite form at row {i}")
        if len(pivot_rows) != basis.cols:
            raise InternalInvariantError("basis is not in Hermite form: a column has no pivot")
        out = object.__new__(cls)
        object.__setattr__(out, "ambient", ambient)
        object.__setattr__(out, "basis", basis)
        object.__setattr__(out, "_pivot_rows", tuple(pivot_rows))
        return out

    @classmethod
    def full(cls, n: int) -> "Lattice":
        return cls(n, IntMatrix.identity(n))

    @classmethod
    def spanned_by(cls, vectors: Sequence[Sequence[int]], ambient: int) -> "Lattice":
        return cls(ambient, IntMatrix.from_cols(vectors, rows=ambient))

    @property
    def rank(self) -> int:
        return self.basis.cols

    @property
    def pivot_rows(self) -> tuple[int, ...]:
        """Row of the leading entry of each canonical basis column."""
        return self._pivot_rows

    def is_zero(self) -> bool:
        return self.rank == 0

    def coords(self, v: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Integer coordinates of v in the canonical basis, or None."""
        q, r = self._divmod(v)
        return None if any(r) else tuple(q)

    def reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of v modulo the lattice: in [0, pivot) at each pivot row."""
        return tuple(self._divmod(v)[1])

    def _divmod(self, v: Sequence[int]) -> tuple[list[int], list[int]]:
        if len(v) != self.ambient:
            raise PreconditionError("vector not in ambient space")
        return _hnf_divmod(self.basis, v)

    def member(self, v: Sequence[int]) -> bool:
        return self.coords(v) is not None

    def solve(self, b: IntMatrix) -> Optional[IntMatrix]:
        """X with basis @ X == B, or None: ``solve_columns`` on a basis already in Hermite form."""
        if b.rows != self.ambient:
            raise PreconditionError("ambient dimensions differ")
        x = _hermite_solve(self.basis, b)
        if x is not None and any(r != w for r, w in zip(self.basis.product_rows(x), b._ent)):
            raise InternalInvariantError("Lattice.solve verification failed")
        return x

    def contains(self, other: "Lattice") -> bool:
        self._same_ambient(other)
        return self.solve(other.basis) is not None

    def __add__(self, other: "Lattice") -> "Lattice":
        self._same_ambient(other)
        return Lattice(self.ambient, IntMatrix.hstack(self.basis, other.basis))

    def intersect(self, other: "Lattice") -> "Lattice":
        self._same_ambient(other)
        if self.is_zero() or other.is_zero():
            return Lattice(self.ambient)
        return Lattice(self.ambient, self.basis @ _preimage_columns(other.basis, self.basis))

    def preimage(self, mat: IntMatrix) -> "Lattice":
        """{w : mat @ w in self}, as a lattice in Z^(mat.cols); kernels are preimages of 0."""
        if mat.rows != self.ambient:
            raise PreconditionError("target lattice lives in the wrong space")
        return Lattice(mat.cols, _preimage_columns(self.basis, mat))

    def transform(self, m: IntMatrix) -> "Lattice":
        """Image lattice under the linear map m."""
        if m.cols != self.ambient:
            raise PreconditionError("map domain mismatch")
        return Lattice(m.rows, m @ self.basis)

    def index(self) -> int:
        """Index [Z^n : L]; requires full rank."""
        if self.rank != self.ambient:
            raise PreconditionError("infinite index: lattice is not full rank")
        return math.prod(self.basis[i, k] for k, i in enumerate(self._pivot_rows))

    def _same_ambient(self, other: "Lattice") -> None:
        if self.ambient != other.ambient:
            raise PreconditionError("ambient dimensions differ")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Lattice(Z^{self.ambient}, rank={self.rank})"


def kernel_basis(a: IntMatrix) -> Lattice:
    """Integer kernel of a as a lattice in Z^cols: the preimage of the zero lattice."""
    return Lattice(a.cols, _preimage_columns(IntMatrix.zeros(a.rows, 0), a))


def solve_columns(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Integral X with A @ X == B, or None if no integral solution exists.

    X = U @ Y for H == A @ U and H @ Y == B.
    """
    if a.rows != b.rows:
        raise PreconditionError("row count mismatch")
    h, u = hnf(a)
    y = _hermite_solve(h, b)
    if y is None:
        return None
    x = u @ y
    if a @ x != b:
        raise InternalInvariantError("solve_columns verification failed")
    return x


def inv_unimodular(u: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix (PreconditionError otherwise)."""
    if not u.is_square():
        raise PreconditionError("not square")
    h, w = hnf(u)
    if h != IntMatrix.identity(u.rows):
        raise PreconditionError("matrix is not unimodular")
    return w


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square():
        raise PreconditionError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise InternalInvariantError("bareiss division not exact")
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly(a: IntMatrix) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_n) of det(x*I - A), low degree first, monic.

    Faddeev-LeVerrier; all divisions are exact over Z.
    """
    if not a.is_square():
        raise PreconditionError("charpoly of a non-square matrix")
    n = a.rows
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = IntMatrix.zeros(n, n)
    c = 1
    for k in range(1, n + 1):
        m = a @ m + c * IntMatrix.identity(n)
        am = a @ m
        c, rem = divmod(-am.trace(), k)
        if rem:
            raise InternalInvariantError("faddeev-leverrier division not exact")
        coeffs[n - k] = c
    return tuple(coeffs)


# -- quotient invariants ---------------------------------------------------


@dataclass(frozen=True)
class QuotientInvariants:
    """Isomorphism type of a finitely generated abelian group.

    torsion lists the invariant factors > 1 in divisibility order, so the
    group is Z/t_1 x ... x Z/t_k x Z^free_rank and two instances are equal
    iff the groups are isomorphic.
    """

    torsion: tuple[int, ...]
    free_rank: int

    def order(self) -> int:
        if self.free_rank:
            raise PreconditionError("infinite group has no order")
        return math.prod(self.torsion)

    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    def describe(self) -> str:
        parts = [f"Z/{t}" for t in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " x ".join(parts) if parts else "0"


def quotient_invariants(top, bottom: Lattice) -> QuotientInvariants:
    """Invariant factors of top/bottom for lattices bottom <= top.

    top may be an int n, meaning all of Z^n.
    """
    if isinstance(top, int):
        top = Lattice.full(top)
    if not isinstance(top, Lattice) or not isinstance(bottom, Lattice):
        raise PreconditionError("quotient_invariants wants lattices")
    if top.ambient != bottom.ambient:
        raise PreconditionError("ambient dimensions differ")
    x = top.solve(bottom.basis)
    if x is None:
        raise PreconditionError("bottom is not contained in top")
    d = snf(x).diag
    torsion = tuple(t for t in d if t > 1)
    rank_x = sum(1 for t in d if t != 0)
    return QuotientInvariants(torsion, top.rank - rank_x)
