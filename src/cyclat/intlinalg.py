"""Exact linear algebra over the integers.

Matrices are immutable and bignum-exact; there is not a float anywhere in
this package.  The normal forms (column-style Hermite, Smith) are computed
with deterministic pivoting so that repeated runs, and the golden values
frozen in the tests, agree byte for byte.  Both eliminations hold their
working vectors as ``{index: nonzero entry}`` and update them through the
one ``_sparse_addmul``: ``snf`` the rows of S and U and the columns of V,
``hnf`` the columns of A with the n x n identity stacked under them, so one
column operation builds H and its transform U together.  Pivot searches,
eliminations and the divisibility scan cost in proportion to the nonzero
entries of the remaining block, not to its size.  A gadget graph's boundary
matrix has about two nonzero entries per column (208 in the 97 x 112 matrix
of 16 strands at depth 6).

Most products in the package involve permutation or unit-column matrices,
so ``A @ B`` and ``A.apply(v)`` skip zero entries: a product costs in
proportion to the nonzero entries of A times the nonzero entries of the
rows of B they meet (Gustavson's row-by-row sparse product), and ``apply``
in proportion to the nonzero entries of v times the row count.  Results
computed here are already tuples of ints and are wrapped without the
coercion and shape checks that caller data goes through.

Conventions that the rest of the package leans on:

* ``hnf`` is a *column* Hermite form ``H = A @ U``: pivot columns first,
  pivots positive, pivot rows strictly increasing, entries to the left of a
  pivot in its row reduced into ``[0, pivot)``.  ``H`` with zero columns
  dropped is the canonical basis of the column span, which is what makes
  ``Lattice`` equality decidable by tuple comparison.
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

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InternalInvariantError, PreconditionError


class IntMatrix:
    """Immutable integer matrix, stored row-major as nested tuples.

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
        object.__setattr__(self, "_ent", ent)
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "cols", n)

    @classmethod
    def _wrap(cls, rows: Iterable[Sequence[int]], m: int, n: int) -> "IntMatrix":
        """The m x n matrix on m rows of n ints each, computed in this module.

        Skips the int() coercion and the shape checks that caller data goes
        through; only the rows are made tuples.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "_ent", tuple(map(tuple, rows)))
        object.__setattr__(out, "rows", m)
        object.__setattr__(out, "cols", n)
        return out

    @classmethod
    def _from_columns(cls, columns: Sequence[Sequence[int]], m: int) -> "IntMatrix":
        """The m-row matrix on columns of ints, each of length m."""
        return cls._wrap(zip(*columns) if columns else ((),) * m, m, len(columns))

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls._wrap(((0,) * n,) * m, m, n)

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
        out = [[0] * len(targets) for _ in range(rows)]
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
        m = mats[0].rows
        if any(a.rows != m for a in mats):
            raise PreconditionError("hstack row mismatch")
        return cls._wrap(
            ((x for a in mats for x in a._ent[i]) for i in range(m)),
            m,
            sum(a.cols for a in mats),
        )

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
        m = sum(a.rows for a in mats)
        n = sum(a.cols for a in mats)
        out = [[0] * n for _ in range(m)]
        i0 = j0 = 0
        for a in mats:
            for i in range(a.rows):
                out[i0 + i][j0 : j0 + a.cols] = a._ent[i]
            i0 += a.rows
            j0 += a.cols
        return cls._wrap(out, m, n)

    # -- accessors ------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._ent[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._ent[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self._ent)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._ent

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self._ent]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        ent = self._ent
        return IntMatrix._wrap(
            ((ent[i][j] for j in col_idx) for i in row_idx), len(row_idx), len(col_idx)
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix._from_columns(self._ent, self.cols)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self._ent)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._wrap(
            (map(operator.add, ra, rb) for ra, rb in zip(self._ent, other._ent)),
            self.rows,
            self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._wrap(
            (map(operator.sub, ra, rb) for ra, rb in zip(self._ent, other._ent)),
            self.rows,
            self.cols,
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._wrap(((-a for a in row) for row in self._ent), self.rows, self.cols)

    def __mul__(self, c: int) -> "IntMatrix":
        if not isinstance(c, int):
            return NotImplemented
        c = int(c)  # a plain int, so every product below is one too
        return IntMatrix._wrap(((c * a for a in row) for row in self._ent), self.rows, self.cols)

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise PreconditionError(
                f"shape mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})"
            )
        n = other.cols
        # row k of other as its (column, value) pairs with nonzero value
        sparse_rows = [[(j, b) for j, b in enumerate(row) if b] for row in other._ent]
        out = []
        for row in self._ent:
            acc = [0] * n
            for a, brow in zip(row, sparse_rows):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            out.append(acc)
        return IntMatrix._wrap(out, self.rows, n)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product as a plain tuple."""
        if len(v) != self.cols:
            raise PreconditionError("vector length mismatch")
        out = [0] * self.rows
        for k, x in enumerate(v):
            if x:
                out = [o + x * row[k] for o, row in zip(out, self._ent)]
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
        return sum(self._ent[i][i] for i in range(self.rows))

    # -- plumbing ---------------------------------------------------------

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise PreconditionError("shape mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._ent == other._ent

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._ent))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix.zeros({self.rows}, {self.cols})"
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self._ent)
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


def _sparse_addmul(rows: list[dict[int, int]], dst: int, src: int, c: int) -> None:
    """rows[dst] += c * rows[src] on rows held as {index: nonzero entry}."""
    out = rows[dst]
    for j, x in rows[src].items():
        y = out.get(j, 0) + c * x
        if y:
            out[j] = y
        else:
            del out[j]


def _dense_rows(rows: Sequence[dict[int, int]], width: int, place: Sequence[int]) -> list[list[int]]:
    """Rows of ints of the given width, entry j of a sparse row going to place[j]."""
    out = []
    for row in rows:
        dense = [0] * width
        for j, x in row.items():
            dense[place[j]] = x
        out.append(dense)
    return out


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
    for i, row in enumerate(a.entries()):
        for j, x in enumerate(row):
            if x:
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
                        _sparse_addmul(cols, j, j0, -q)
            # columns outside live stay zero in row i, and j0 stays nonzero
            live = [j for j in live if i in cols[j]]
        cols[piv], cols[j0] = cols[j0], cols[piv]
        if cols[piv][i] < 0:
            cols[piv] = {r: -x for r, x in cols[piv].items()}
        p = cols[piv][i]
        for j in range(piv):
            q = cols[j].get(i, 0) // p
            if q:
                _sparse_addmul(cols, j, piv, -q)
        piv += 1
    stacked = IntMatrix._from_columns(_dense_rows(cols, m + n, range(m + n)), m + n).entries()
    return IntMatrix._wrap(stacked[:m], m, n), IntMatrix._wrap(stacked[m:], n, n)


def _pivots(h: IntMatrix) -> tuple[int, ...]:
    """Pivot row of each nonzero column of a column Hermite form.

    The nonzero columns come first and each is zero above its pivot, which
    lies strictly below the previous one, so one downward sweep finds them.
    """
    ent = h.entries()
    out = []
    i = 0
    for j in range(h.cols):
        while i < h.rows and ent[i][j] == 0:
            i += 1
        if i == h.rows:
            break
        out.append(i)
        i += 1
    return tuple(out)


def _hnf_coords(h: IntMatrix, pivots: Sequence[int], v: Sequence[int]) -> Optional[list[int]]:
    """y with h[:, :len(pivots)] @ y == v by substitution down the pivot rows, or None."""
    ent = h.entries()
    x = list(v)
    out = []
    for k, i in enumerate(pivots):
        c, rem = divmod(x[i], ent[i][k])
        if rem:
            return None
        out.append(c)
        if c:
            for ii in range(i, len(x)):
                x[ii] -= c * ent[ii][k]
    return None if any(x) else out


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
    s = [{j: x for j, x in enumerate(row) if x} for row in a.entries()]
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
                        _sparse_addmul(s, i, k, -q)
                        _sparse_addmul(u, i, k, -q)
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
                    _sparse_addmul(v, j, pk, -q)
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
            _sparse_addmul(s, k, offender, 1)
            _sparse_addmul(u, k, offender, 1)
        if not best:
            break

    res = SnfResult(
        IntMatrix._wrap(_dense_rows(u, m, range(m)), m, m),
        IntMatrix._wrap(_dense_rows(s, n, place), m, n),
        IntMatrix._from_columns(_dense_rows((v[j] for j in order), n, range(n)), n),
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
        object.__setattr__(self, "basis", h.submatrix(range(ambient), range(len(pivot_rows))))
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
        if len(v) != self.ambient:
            raise PreconditionError("vector not in ambient space")
        y = _hnf_coords(self.basis, self._pivot_rows, v)
        return None if y is None else tuple(y)

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
        return ker.submatrix(range(mat.cols), range(ker.cols))

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
    pivots = _pivots(h)
    pad = [0] * (a.cols - len(pivots))
    xcols = []
    for jb in range(b.cols):
        y = _hnf_coords(h, pivots, b.col(jb))
        if y is None:
            return None
        xcols.append(u.apply(y + pad))
    x = IntMatrix._from_columns(xcols, a.cols)
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
