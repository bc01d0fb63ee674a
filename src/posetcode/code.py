"""Linear codes over GF(q) with poset-weight support.

A LinearCode is the row space of a k x n generator matrix over GF(q).
The parity-check matrix (a null-space basis of the generator) is computed
at construction, so membership tests and the dual code are always
available.  The poset weight of a word u under a poset P on {1..n} is
the size of the ideal closure of its support.

Codeword enumeration streams the q**k words in ascending base-q order of
the message encoding: message integer m encodes the coefficient vector
(m // q**i) % q applied to generator row i.  The stream keeps one running
word and applies per-digit increment deltas, so each step costs O(n)
field additions regardless of k.

Text format for code files (parse_code / format_code):

    q 2 n 4 k 2    # header
    1 1 0 0        # k generator rows of n entries each
    0 0 1 1

'#' starts a comment; entries are whitespace-separated ints in range(q).
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from .field import GF, gf
from .matrix import Matrix, matrix_times_col, row_times_matrix
from .poset import Poset

MAX_ENUMERATION = 1 << 20


def support_mask(word: Sequence[int]) -> int:
    """Bitmask of the nonzero coordinates of a word."""
    out = 0
    for i, a in enumerate(word):
        if a:
            out |= 1 << i
    return out


def poset_weight(poset: Poset, word: Sequence[int]) -> int:
    """Size of the ideal closure of the word's support."""
    if len(word) != poset.n:
        raise ValueError(f"word length {len(word)} != poset size {poset.n}")
    return poset.ideal_closure(support_mask(word)).bit_count()


def poset_weight_of_set(poset: Poset, words: Iterable[Sequence[int]]) -> int:
    """Size of the ideal closure of the union of supports.

    For a subspace, apply this to any basis: the union of basis supports
    equals the support of the whole subspace, since a coordinate vanishing
    on every basis vector vanishes on all combinations, and conversely.
    """
    union = 0
    for w in words:
        if len(w) != poset.n:
            raise ValueError(f"word length {len(w)} != poset size {poset.n}")
        union |= support_mask(w)
    return poset.ideal_closure(union).bit_count()


class LinearCode:
    __slots__ = ("field", "n", "k", "generator", "parity", "_matroid")

    def __init__(self, field: GF, generator: Matrix, parity: Matrix) -> None:
        self.field = field
        self.n = generator.ncols
        self.k = generator.nrows
        self.generator = generator
        self.parity = parity
        self._matroid = None

    @classmethod
    def from_generator(cls, field: GF, rows: Iterable[Iterable[int]]) -> LinearCode:
        """Code spanned by the given rows.

        Dependent rows are legal: the code is then built from the reduced
        echelon basis and a warning reports the smaller dimension.  A zero
        row space is rejected.
        """
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("a code needs at least one generator row")
        mat = Matrix(field, rows)
        reduced, pivots = mat.echelon()
        rank = len(pivots)
        if rank == 0:
            raise ValueError("generator rows span only the zero word")
        if rank < mat.nrows:
            warnings.warn(
                f"generator rows are dependent; dimension reduced to k={rank}",
                stacklevel=2,
            )
            mat = Matrix._unchecked(field, reduced.rows[:rank], mat.ncols)
        return cls(field, mat, mat.null_space_basis())

    # -- basic queries -----------------------------------------------------

    @property
    def codeword_count(self) -> int:
        return self.field.q**self.k

    def contains(self, word: Sequence[int]) -> bool:
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != code length {self.n}")
        return not any(matrix_times_col(self.parity, word))

    def codeword(self, message: Sequence[int]) -> tuple[int, ...]:
        """Encode one message vector of length k."""
        return row_times_matrix(message, self.generator)

    def codewords(self) -> Iterator[tuple[int, ...]]:
        """Stream all q**k codewords in ascending message-encoding order."""
        total = self.codeword_count
        if total > MAX_ENUMERATION:
            raise ValueError(
                f"q^k = {total} codewords exceeds the enumeration cap {MAX_ENUMERATION}"
            )
        F = self.field
        q = F.q
        rows = self.generator.rows
        # when digit i steps c -> c+1 the running word gains step[c] * row i
        # (c == q-1 means the rollover step back to 0)
        step = [F.sub((c + 1) % q, c) for c in range(q)]
        word = [0] * self.n
        digits = [0] * self.k
        yield tuple(word)
        for _ in range(total - 1):
            i = 0
            while True:
                c = digits[i]
                word = F._add_scaled(word, step[c], rows[i])
                if c + 1 < q:
                    digits[i] = c + 1
                    break
                digits[i] = 0
                i += 1
            yield tuple(word)

    # -- derived codes -------------------------------------------------------

    def shorten(self, mask: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Dimension and basis of the subcode supported inside the subset.

        The subcode C^J = {u in C : supp(u) <= J} is cut out by solving for
        messages whose codewords vanish on the complement of J, so the
        returned dimension comes from a null-space computation and not from
        any rank identity.  Basis words are full-length.
        """
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"subset mask {mask:#x} out of range for n={self.n}")
        full = (1 << self.n) - 1
        outside = self.generator.column_submatrix(full ^ mask)
        messages = outside.transpose().null_space_basis()
        basis = tuple(row_times_matrix(msg, self.generator) for msg in messages.rows)
        return messages.nrows, basis

    def dualize(self) -> LinearCode:
        """The dual code, generated by the parity-check rows."""
        if self.k == self.n:
            raise ValueError("the full space has the zero code as its dual")
        return LinearCode.from_generator(self.field, self.parity.rows)

    @property
    def matroid(self):
        """Memoized column-rank data shared by all callers; see matroid module."""
        if self._matroid is None:
            from .matroid import RankProfile

            self._matroid = RankProfile(self)
        return self._matroid

    def __repr__(self) -> str:
        return f"LinearCode(q={self.field.q}, n={self.n}, k={self.k})"


def parse_code(text: str) -> LinearCode:
    """Parse the code text format; see the module docstring."""
    header: list[str] | None = None
    entries: list[int] = []
    q = n = k = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            header = parts
            if len(parts) != 6 or parts[0] != "q" or parts[2] != "n" or parts[4] != "k":
                raise ValueError(
                    f"line {lineno}: expected header 'q <q> n <n> k <k>', got {raw!r}"
                )
            try:
                q, n, k = int(parts[1]), int(parts[3]), int(parts[5])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer header field in {raw!r}") from None
            continue
        for tok in parts:
            try:
                entries.append(int(tok))
            except ValueError:
                raise ValueError(f"line {lineno}: matrix entry {tok!r} is not an integer") from None
    if header is None:
        raise ValueError("missing header line 'q <q> n <n> k <k>'")
    assert q is not None and n is not None and k is not None
    field = gf(q)
    if n < 1:
        raise ValueError(f"code length {n} must be at least 1")
    if not 1 <= k <= n:
        raise ValueError(f"dimension {k} outside 1..{n}")
    if len(entries) != k * n:
        raise ValueError(f"expected {k}x{n} = {k * n} matrix entries, got {len(entries)}")
    rows = [entries[i * n : (i + 1) * n] for i in range(k)]
    code = LinearCode.from_generator(field, rows)
    return code


def format_code(code: LinearCode) -> str:
    lines = [f"q {code.field.q} n {code.n} k {code.k}"]
    lines.extend(" ".join(str(a) for a in row) for row in code.generator.rows)
    return "\n".join(lines) + "\n"


def load_code(path: str | Path) -> LinearCode:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read code file {path}: {exc}") from None
    try:
        return parse_code(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
