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
row k of B), ``snf`` on the rows of S and U and the columns of V, and
``hnf`` on the columns of A stacked on the identity, so one column
operation builds H and U together.  Each costs in proportion to the
nonzero entries it meets, not to the size of the matrix.

Conventions that the rest of the package leans on:

* ``hnf`` is a *column* Hermite form ``H = A @ U``: pivot columns first,
  pivots positive, pivot rows strictly increasing, entries to the left of a
  pivot in its row reduced into ``[0, pivot)``.  ``H`` with zero columns
  dropped is the canonical basis of the column span, which is what makes
  ``Lattice`` equality decidable by comparing bases.
* ``snf`` returns ``U @ A @ V == S`` with nonnegative diagonal and each
  diagonal entry dividing the next.  Its pivot at step k is the smallest
  |entry| of the remaining block, ties going to the first in row-major
  order; the transforms U and V, and with them the K0 coordinates of the
  graph layer, depend on this rule and on the order of the row and column
  operations that follow it, so both are fixed.
* ``Lattice.preimage`` is the one home of ``{w : A w in L}``: fixed
  submodules, norm kernels, presentation kernels, group relations and
  lattice intersections are all preimages.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return cls(zip(*columns) if columns else ((),) * rows, shape=(rows, len(columns)))

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
        out = []
        for i in row_idx:
            row = self._ent[i]
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
        if self.cols != other.rows:
            raise PreconditionError(
                f"shape mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})"
            )
        brows = other._ent
        out = []
        for row in self._ent:
            acc = {}
            for k, a in row.items():
                _addmul(acc, brows[k], a)
            out.append(acc)
        return IntMatrix._wrap(out, self.rows, other.cols)

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


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# -- Hermite form --------------------------------------------------------------


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form: (H, U) with H == A @ U, U unimodular.

    Pivot columns come first; each pivot is positive, sits strictly below
    the previous pivot's row, and the entries to its left in its row are
    reduced into [0, pivot).  Trailing columns of H are zero.  H is the
    canonical basis matrix of the column span.

    Pivot of row i: the smallest |entry| in the columns from the current
    pivot on (ties: the first); the others are reduced by it until it is
    alone.  Working column j is A's column j over the identity's: U below H.
    """
    m, n = a.rows, a.cols
    cols = [{m + j: 1} for j in range(n)]
    for i, row in enumerate(a._ent):
        for j, x in row.items():
            cols[j][i] = x
    piv = 0
    for i in range(m):
        if piv == n:
            break
        live = [j for j in range(piv, n) if i in cols[j]]
        if not live:
            continue
        while True:
            j0 = min(live, key=lambda j: (abs(cols[j][i]), j))
            if len(live) == 1:
                break
            for j in live:
                if j != j0:
                    q = cols[j][i] // cols[j0][i]
                    if q:
                        _addmul(cols[j], cols[j0], -q)
            # columns outside live stay zero in row i, and j0 stays nonzero
            live = [j for j in live if i in cols[j]]
        cols[piv], cols[j0] = cols[j0], cols[piv]
        if cols[piv][i] < 0:
            cols[piv] = {r: -x for r, x in cols[piv].items()}
        p = cols[piv][i]
        for j in range(piv):
            q = cols[j].get(i, 0) // p
            if q:
                _addmul(cols[j], cols[piv], -q)
        piv += 1
    stacked = IntMatrix._wrap(cols, n, m + n).transpose()._ent
    return IntMatrix._wrap(stacked[:m], m, n), IntMatrix._wrap(stacked[m:], n, n)


def _pivots(h: IntMatrix) -> tuple[int, ...]:
    """Pivot row of each nonzero column of a column Hermite form.

    The nonzero columns come first and each is zero above its pivot, which
    lies strictly below the previous one, so a row holds the pivot of the
    next column exactly when it has an entry there.
    """
    out = []
    for i, row in enumerate(h._ent):
        if len(out) in row:
            out.append(i)
    return tuple(out)


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


def _kernel_columns(a: IntMatrix) -> IntMatrix:
    """Columns of the HNF transform spanning the integer kernel of a (not reduced)."""
    h, u = hnf(a)
    return u.submatrix(range(a.cols), range(len(_pivots(h)), a.cols))


def column_rank(a: IntMatrix) -> int:
    return len(_pivots(hnf(a)[0]))


# -- Smith form ----------------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """U @ A @ V == S, S diagonal with nonnegative entries d_k | d_{k+1}."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    @property
    def diag(self) -> tuple[int, ...]:
        return tuple(self.s[i, i] for i in range(min(self.s.rows, self.s.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form with both transforms, deterministic pivoting.

    Step k moves the smallest |entry| of the remaining block (ties: the
    first in row-major order) to (k, k), reduces its column by row
    operations and its row by column operations, and repeats until both are
    clear; a pivot that does not divide the rest of the block gets the first
    such row added to its own.  Rows of S and U and columns of V are held as
    {index: nonzero entry}, so each of these passes touches the nonzero
    entries of the block, plus one lookup per remaining row to find the
    pivot column.  Columns are swapped through the permutation ``order``
    instead of moving entries.
    """
    m, n = a.rows, a.cols
    s = [dict(row) for row in a._ent]
    u = [{i: 1} for i in range(m)]
    v = [{j: 1} for j in range(n)]  # V column of each column key of s
    order = list(range(n))  # column key at each position of S
    place = list(range(n))  # position of each column key

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
            if bt != k:
                jk, jt = order[k], order[bt]
                order[k], order[bt] = jt, jk
                place[jt], place[jk] = k, bt
            pk = order[k]
            srow = s[k]
            p = srow[pk]
            dirty = False
            pivot_col = [k]  # rows left with a nonzero entry in the pivot column
            for i in range(k + 1, m):
                x = s[i].get(pk)
                if x:
                    q = x // p
                    if q:
                        _addmul(s[i], srow, -q)
                        _addmul(u[i], u[k], -q)
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
                        else:
                            row.pop(j, None)
                    _addmul(v[j], v[pk], -q)
                if j in srow:
                    dirty = True
            if dirty:
                continue
            if p < 0:
                s[k] = {j: -x for j, x in srow.items()}
                u[k] = {i: -x for i, x in u[k].items()}
                p = -p
            # every remaining entry is a multiple of 1, so a unit pivot is final
            offender = None
            if p != 1:
                offender = next((i for i in range(k + 1, m) if any(x % p for x in s[i].values())), None)
            if offender is None:
                break
            _addmul(s[k], s[offender], 1)
            _addmul(u[k], u[offender], 1)
        if not best:
            break

    res = SnfResult(
        IntMatrix._wrap(u, m, m),
        IntMatrix._wrap([{place[j]: x for j, x in row.items()} for row in s], m, n),
        IntMatrix._wrap([v[j] for j in order], n, n).transpose(),
    )
    if res.u @ a @ res.v != res.s:
        raise InternalInvariantError("snf transform identity failed")
    return res


# -- lattices ------------------------------------------------------------------


class Lattice:
    """A subgroup of Z^n, held as a canonical column-HNF basis.

    Two Lattice objects in the same ambient compare equal iff they are the
    same subgroup, which is what lets the higher layers phrase statements
    like "the twisted image equals the kernel" as plain ==.
    """

    __slots__ = ("ambient", "basis", "_pivot_rows")

    def __init__(self, ambient: int, basis: Optional[IntMatrix] = None):
        if ambient < 0:
            raise PreconditionError("negative ambient dimension")
        if basis is None:
            basis = IntMatrix.zeros(ambient, 0)
        if basis.rows != ambient:
            raise PreconditionError(f"basis has {basis.rows} rows in ambient Z^{ambient}")
        h, _ = hnf(basis)
        pivot_rows = _pivots(h)
        object.__setattr__(self, "ambient", ambient)
        # the columns of H after the pivot columns are zero: no row has entries there
        object.__setattr__(self, "basis", IntMatrix._wrap(h._ent, ambient, len(pivot_rows)))
        object.__setattr__(self, "_pivot_rows", pivot_rows)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

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

    def contains(self, other: "Lattice") -> bool:
        self._same_ambient(other)
        return all(self.member(c) for c in other.basis.columns())

    def __add__(self, other: "Lattice") -> "Lattice":
        self._same_ambient(other)
        return Lattice(self.ambient, IntMatrix.hstack(self.basis, other.basis))

    def intersect(self, other: "Lattice") -> "Lattice":
        self._same_ambient(other)
        if self.is_zero() or other.is_zero():
            return Lattice(self.ambient)
        return Lattice(self.ambient, other.basis @ self._preimage_gens(other.basis))

    def preimage(self, mat: IntMatrix) -> "Lattice":
        """{w : mat @ w in self}, as a lattice in Z^(mat.cols)."""
        if mat.rows != self.ambient:
            raise PreconditionError("target lattice lives in the wrong space")
        return Lattice(mat.cols, self._preimage_gens(mat))

    def _preimage_gens(self, mat: IntMatrix) -> IntMatrix:
        # w with mat w in self are the heads of the kernel of [mat | -basis]
        ker = _kernel_columns(IntMatrix.hstack(mat, -self.basis))
        return IntMatrix._wrap(ker._ent[: mat.cols], mat.cols, ker.cols)

    def transform(self, m: IntMatrix) -> "Lattice":
        """Image lattice under the linear map m."""
        if m.cols != self.ambient:
            raise PreconditionError("map domain mismatch")
        return Lattice(m.rows, m @ self.basis)

    def index(self) -> int:
        """Index [Z^n : L]; requires full rank."""
        if self.rank != self.ambient:
            raise PreconditionError("infinite index: lattice is not full rank")
        out = 1
        for k in range(self.rank):
            out *= self.basis[self._pivot_rows[k], k]
        return out

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
    """Integer kernel of a as a lattice in Z^cols."""
    return Lattice(a.cols, _kernel_columns(a))


def solve_columns(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Integral X with A @ X == B, or None if no integral solution exists."""
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
        out = 1
        for t in self.torsion:
            out *= t
        return out

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
    x = solve_columns(top.basis, bottom.basis)
    if x is None:
        raise PreconditionError("bottom is not contained in top")
    d = snf(x).diag
    torsion = tuple(t for t in d if t > 1)
    rank_x = sum(1 for t in d if t != 0)
    return QuotientInvariants(torsion, top.rank - rank_x)
