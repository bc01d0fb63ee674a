"""Dense matrices over GF(q) with exact row reduction.

Rows are tuples of int field encodings.  Instances are immutable; the
reduced row echelon form is computed once and cached.  Zero-row and
zero-column matrices are legal (they arise as parity checks of the full
space and as column restrictions to the empty set), which is why the
constructor takes an explicit column count when no rows are given.

The constructor checks every entry, a row at once, and the vector products
check their vector once on entry; row reduction and the products then run
on the field's unchecked row operations.  Matrices derived from a checked
one (echelon form, column restriction, null-space basis) are built
without the entry checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat

from .bitset import bits_of
from .field import GF


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows", "_echelon")

    def __init__(self, field: GF, rows: Iterable[Iterable[int]], ncols: int | None = None) -> None:
        rows = tuple(tuple(r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError(f"row of length {len(r)} in a matrix with {ncols} columns")
            _check_entries(field, r)
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows
        self._echelon: tuple[Matrix, tuple[int, ...]] | None = None

    @classmethod
    def _unchecked(cls, field: GF, rows: Iterable[Iterable[int]], ncols: int) -> Matrix:
        """Matrix from rows of a checked matrix or of the field's own row
        operations, so the per-entry checks of the constructor are skipped."""
        mat = cls.__new__(cls)
        mat.field = field
        mat.rows = tuple(tuple(r) for r in rows)
        mat.nrows = len(mat.rows)
        mat.ncols = ncols
        mat._echelon = None
        return mat

    @classmethod
    def identity(cls, field: GF, n: int) -> Matrix:
        return cls(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    def echelon(self) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        Deterministic: pivots are chosen leftmost-column first, using the
        topmost unprocessed row with a nonzero entry; every pivot is scaled
        to 1 and cleared from all other rows.
        """
        if self._echelon is None:
            F = self.field
            work = [list(r) for r in self.rows]
            pivots: list[int] = []
            pr = 0
            for col in range(self.ncols):
                if pr == self.nrows:
                    break
                sel = next((i for i in range(pr, self.nrows) if work[i][col]), None)
                if sel is None:
                    continue
                work[pr], work[sel] = work[sel], work[pr]
                lead = work[pr][col]
                if lead != 1:
                    work[pr] = F._scale(F.inv(lead), work[pr])
                row_p = work[pr]
                for i in range(self.nrows):
                    c = work[i][col]
                    if i != pr and c:
                        work[i] = F._sub_scaled(work[i], c, row_p)
                pivots.append(col)
                pr += 1
            mat = Matrix._unchecked(self.field, work, self.ncols)
            mat._echelon = (mat, tuple(pivots))
            self._echelon = mat._echelon
        return self._echelon

    def rank(self) -> int:
        return len(self.echelon()[1])

    def column_submatrix(self, mask: int) -> Matrix:
        """Matrix keeping the columns whose mask bit is set, ascending."""
        if not 0 <= mask < (1 << self.ncols):
            raise ValueError(f"column mask {mask:#x} out of range for {self.ncols} columns")
        cols = list(bits_of(mask))
        return Matrix._unchecked(self.field, (tuple(row[c] for c in cols) for row in self.rows), len(cols))

    def null_space_basis(self) -> Matrix:
        """Basis of {v : self v = 0}, one row per free column, ascending.

        Each basis vector carries a 1 in its own free column and zeros in
        the other free columns, so the result is itself in echelon shape up
        to column order.
        """
        R, pivots = self.echelon()
        piv_set = set(pivots)
        F = self.field
        out = []
        for f in range(self.ncols):
            if f in piv_set:
                continue
            v = [0] * self.ncols
            v[f] = 1
            for i, pc in enumerate(pivots):
                v[pc] = F._neg[R.rows[i][f]]
            out.append(v)
        return Matrix._unchecked(self.field, out, self.ncols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def _check_entries(field: GF, row: Sequence[int]) -> None:
    """field.check on every entry, a row at once; one by one only to name a bad entry."""
    if row and not (all(map(isinstance, row, repeat(int))) and 0 <= min(row) and max(row) < field.q):
        for a in row:
            field.check(a)


def _check_vector(field: GF, v: Sequence[int], length: int, against: str) -> None:
    if len(v) != length:
        raise ValueError(f"vector of length {len(v)} against {length} {against}")
    _check_entries(field, v)


def row_times_matrix(v: Sequence[int], M: Matrix) -> tuple[int, ...]:
    """v M for a row vector v of length M.nrows."""
    F = M.field
    _check_vector(F, v, M.nrows, "rows")
    acc = [0] * M.ncols
    for a, row in zip(v, M.rows):
        if a:
            acc = F._add_scaled(acc, a, row)
    return tuple(acc)


def matrix_times_col(M: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    """M v for a column vector v of length M.ncols."""
    F = M.field
    _check_vector(F, v, M.ncols, "columns")
    return tuple(F._dot(row, v) for row in M.rows)
