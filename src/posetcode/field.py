"""Exact arithmetic in Galois fields GF(q) for prime powers q <= 256.

Elements are plain ints in range(q).  An element with base-p digits
(c_0, ..., c_{m-1}) encodes the polynomial c_0 + c_1 x + ... + c_{m-1} x^(m-1)
over GF(p), so for prime q the encoding is just arithmetic mod p.  Extension
fields reduce modulo a fixed monic irreducible polynomial chosen by a
deterministic search (smallest encoding first), which keeps the meaning of
every int stable across runs and machines.

Every field has one representation: full q x q addition and multiplication
tables plus negation and inverse vectors, built once at construction and
a row at a time: addition digit-wise mod p (XOR for p = 2, else the low
digit's table plus p times the table of the others), multiplication as
the powers of a primitive element read from log a on.  Fields are
interned by make_field, and two GF instances compare equal exactly when
they have the same order and modulus.

Element checks happen where data enters the program.  The public scalar
operations (add, sub, mul, inv, neg, div, pow) check their arguments.  The
row operations _scale, _add_scaled, _sub_scaled and _dot do not: they are
the inner loops of row reduction and codeword streaming, and their callers
pass rows that the Matrix constructor (which the code parser goes through)
or the vector products have already checked.  Outside this module only
the packed rank walk (matroid._reducer, code._PackedWords.times)
reads the tables directly, a row at a time.
"""

from __future__ import annotations

from functools import lru_cache

MAX_ORDER = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _poly_rem(f: list[int], g: list[int], p: int) -> list[int]:
    # g must be monic; returns f mod g with len(g) - 1 coefficients
    r = list(f)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            for j in range(dg):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    return r[:dg]


def _is_irreducible(f: list[int], p: int) -> bool:
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            g = _digits(enc, p, d) + [1]
            if not any(_poly_rem(f, g, p)):
                return False
    return True


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    """Deterministic reduction modulus for GF(p**m).

    For m == 1 the formal modulus is x itself.  For m > 1, candidates
    x^m + c_{m-1} x^(m-1) + ... + c_0 are scanned by ascending encoding
    sum(c_i p^i) and the first irreducible one wins.
    """
    if m == 1:
        return (0, 1)
    for enc in range(p**m):
        f = _digits(enc, p, m) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("an irreducible polynomial exists for every degree")


def _add_table(p: int, m: int) -> list[list[int]]:
    """Digit-wise sums mod p of every pair of encodings in range(p**m),
    built a row at a time: XOR for p = 2; for odd p, a = a_0 + p a' sums
    as the p x p table on the low digits plus p times the GF(p**(m - 1))
    table on the rest."""
    q = p**m
    if p == 2:
        return [[a ^ b for b in range(q)] for a in range(q)]
    low = [[(a + b) % p for b in range(p)] for a in range(p)]
    if m == 1:
        return low
    rest = [[p * s for s in row] for row in _add_table(p, m - 1)]
    return [[s + t for s in high for t in low[a]] for high in rest for a in range(p)]


class GF:
    """The finite field GF(p**m) on int-encoded elements.

    Prefer make_field(p, m) or gf(q), which intern instances; constructing
    GF directly redoes the modulus search and table build each time.
    """

    __slots__ = ("p", "m", "q", "modulus", "generator", "_add", "_mul", "_neg", "_inv")

    def __init__(self, p: int, m: int) -> None:
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree {m} must be at least 1")
        q = p**m
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported cap {MAX_ORDER}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = _find_modulus(p, m)
        self._add = _add_table(p, m)
        self._neg = [row.index(0) for row in self._add]
        # the multiplicative group is cyclic: the powers exp[i] of a
        # primitive element reach every nonzero element, and log inverts them
        for gen in range(1, q):
            exp = [1]
            y = gen
            while y != 1:
                exp.append(y)
                y = self._mul_raw(y, gen)
            if len(exp) == q - 1:
                break
        self.generator = gen
        log = {y: i for i, y in enumerate(exp)}
        # row a is exp read from log[a] on, at log[b]: exp twice over needs no modulo
        exp2, logs = exp + exp, [log[b] for b in range(1, q)]
        self._mul = [[0] * q] + [[0, *map(exp2[log[a] :].__getitem__, logs)] for a in range(1, q)]
        # _inv[0] is a placeholder; inv() rejects 0 before reading it
        self._inv = [0] + [exp[-log[a] % (q - 1)] for a in range(1, q)]

    # -- construction ------------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial product of two encodings, reduced by the modulus."""
        p, m = self.p, self.m
        fb = _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, ca in enumerate(_digits(a, p, m)):
            if ca:
                for j, cb in enumerate(fb):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        out = 0
        for c in reversed(_poly_rem(prod, list(self.modulus), p)):
            out = out * p + c
        return out

    # -- element ops -------------------------------------------------------

    def check(self, a: int) -> int:
        """Return a unchanged if it encodes an element, else ValueError."""
        if not isinstance(a, int) or a < 0 or a >= self.q:
            raise ValueError(f"{a!r} is not an element of {self!r}")
        return a

    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        return self._add[self.check(a)][self.check(b)]

    def neg(self, a: int) -> int:
        return self._neg[self.check(a)]

    def sub(self, a: int, b: int) -> int:
        return self._add[self.check(a)][self._neg[self.check(b)]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[self.check(a)][self.check(b)]

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        self.check(a)
        if a == 0:
            if e < 0:
                raise ZeroDivisionError(f"0 has no inverse in {self!r}")
            return 1 if e == 0 else 0
        out = 1
        for _ in range(e % (self.q - 1)):
            out = self._mul[out][a]
        return out

    # -- unchecked row ops -------------------------------------------------

    def _scale(self, c: int, row) -> list[int]:
        """c * row."""
        times_c = self._mul[c]
        return [times_c[a] for a in row]

    def _add_scaled(self, x, c: int, y) -> list[int]:
        """x + c * y."""
        add = self._add
        times_c = self._mul[c]
        return [add[a][times_c[b]] for a, b in zip(x, y)]

    def _sub_scaled(self, x, c: int, y) -> list[int]:
        """x - c * y."""
        return self._add_scaled(x, self._neg[c], y)

    def _dot(self, x, y) -> int:
        """sum of x_i * y_i."""
        add, mul = self._add, self._mul
        acc = 0
        for a, b in zip(x, y):
            acc = add[acc][mul[a][b]]
        return acc

    # -- identity ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF):
            return NotImplemented
        return self.q == other.q and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash((self.q, self.modulus))


@lru_cache(maxsize=None)
def make_field(p: int, m: int) -> GF:
    """Interned GF(p**m); repeated calls return the same instance."""
    return GF(p, m)


def gf(order: int) -> GF:
    """Interned field of the given prime-power order (2 <= order <= 256)."""
    if order < 2:
        raise ValueError(f"field order {order} must be at least 2")
    p = 2
    while p * p <= order:
        if order % p == 0:
            break
        p += 1
    else:
        p = order
    m = 0
    rest = order
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"{order} is not a prime power")
    return make_field(p, m)
