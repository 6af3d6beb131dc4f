"""Exact integer and modular matrices, plus Smith normal form.

IntMatrix entries are arbitrary-precision Python integers; ModMatrix
entries are canonical residues 0..m-1.  Both are immutable and hashable
so they can live in sets during group enumeration.

Text formats: one row per line, whitespace-separated decimal integers.
A modular matrix carries an extra first line ``mod m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional

Rows = tuple[tuple[int, ...], ...]


def _freeze(rows) -> Rows:
    return tuple(tuple(int(e) for e in row) for row in rows)


def identity_rows(d: int) -> Rows:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mul_rows(a: Rows, b: Rows, mod: Optional[int] = None) -> Rows:
    cols = tuple(zip(*b))
    if mod is None:
        return tuple(tuple(sum(map(mul, row, col)) for col in cols)
                     for row in a)
    return tuple(tuple(sum(map(mul, row, col)) % mod for col in cols)
                 for row in a)


def pow_rows(a: Rows, k: int, mod: Optional[int] = None) -> Rows:
    """a**k by square-and-multiply over ``mul_rows(..., mod)``."""
    if k < 0:
        raise ValueError("negative matrix power")
    out = identity_rows(len(a))
    while k:
        if k & 1:
            out = mul_rows(out, a, mod)
        a = mul_rows(a, a, mod)
        k >>= 1
    return out


@dataclass(frozen=True)
class IntMatrix:
    rows: Rows

    def __post_init__(self):
        object.__setattr__(self, "rows", _freeze(self.rows))

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls(identity_rows(d))

    def is_identity(self) -> bool:
        return self.rows == identity_rows(self.dimension)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(mul_rows(self.rows, other.rows))

    def __pow__(self, k: int) -> "IntMatrix":
        return IntMatrix(pow_rows(self.rows, k))

    def det(self) -> int:
        return det_rows(self.rows)

    def mod(self, m: int) -> "ModMatrix":
        if m < 2:
            raise ValueError(f"modulus {m} < 2")
        return ModMatrix(tuple(tuple(e % m for e in row) for row in self.rows), m)

    def __str__(self) -> str:
        return format_matrix(self.rows)


@dataclass(frozen=True)
class ModMatrix:
    rows: Rows
    modulus: int

    def __post_init__(self):
        m = self.modulus
        if m < 2:
            raise ValueError(f"modulus {m} < 2")
        object.__setattr__(
            self, "rows", tuple(tuple(int(e) % m for e in row) for row in self.rows))

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, d: int, m: int) -> "ModMatrix":
        return cls(identity_rows(d), m)

    def is_identity(self) -> bool:
        return self.rows == tuple(
            tuple(1 % self.modulus if i == j else 0 for j in range(self.dimension))
            for i in range(self.dimension))

    def __mul__(self, other: "ModMatrix") -> "ModMatrix":
        if other.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        return ModMatrix(mul_rows(self.rows, other.rows, self.modulus), self.modulus)

    def __pow__(self, k: int) -> "ModMatrix":
        return ModMatrix(pow_rows(self.rows, k, self.modulus), self.modulus)

    def reduce(self, m: int) -> "ModMatrix":
        if self.modulus % m:
            raise ValueError(f"{m} does not divide modulus {self.modulus}")
        return ModMatrix(tuple(tuple(e % m for e in row) for row in self.rows), m)

    def det(self) -> int:
        return det_rows(self.rows) % self.modulus

    def __str__(self) -> str:
        return f"mod {self.modulus}\n" + format_matrix(self.rows)


def format_matrix(rows: Rows) -> str:
    return "\n".join(" ".join(str(e) for e in row) for row in rows) + "\n"


def parse_matrix(text: str) -> "IntMatrix | ModMatrix":
    lines = [ln for ln in text.splitlines() if ln.strip()]
    mod = None
    if lines and lines[0].startswith("mod "):
        mod = int(lines[0].split()[1])
        lines = lines[1:]
    rows = tuple(tuple(int(tok) for tok in ln.split()) for ln in lines)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    return IntMatrix(rows) if mod is None else ModMatrix(rows, mod)


def det_rows(rows: Rows) -> int:
    """Fraction-free (Bareiss) determinant over the integers."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithForm:
    """U * A * V = diag(divisors) with U, V unimodular.

    Only the column transform V (and its inverse) is kept: it is what a
    presentation needs to change generators, and row operations never
    touch it.  ``divisors`` is the nonzero diagonal, each dividing the
    next.
    """

    divisors: tuple[int, ...]
    ncols: int
    v: Optional[tuple[tuple[int, ...], ...]] = None
    v_inv: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def free_columns(self) -> tuple[int, ...]:
        return tuple(range(len(self.divisors), self.ncols))

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d > 1)


def smith_normal_form(rows: Iterable[Iterable[int]], ncols: int,
                      want_transform: bool = False) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column moves.

    Pivots are chosen with minimal absolute value (stopping early at 1)
    to keep intermediate entries small on the sparse relator matrices
    this is used for.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    if want_transform:
        v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
        v_inv = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    else:
        v = v_inv = None

    def col_swap(j1, j2):
        for row in a:
            row[j1], row[j2] = row[j2], row[j1]
        if v is not None:
            for row in v:
                row[j1], row[j2] = row[j2], row[j1]
            v_inv[j1], v_inv[j2] = v_inv[j2], v_inv[j1]

    def col_addmul(jdst, jsrc, q):
        # column jdst += q * column jsrc; inverse records the row move
        if q == 0:
            return
        for row in a:
            if row[jsrc]:
                row[jdst] += q * row[jsrc]
        if v is not None:
            for row in v:
                if row[jsrc]:
                    row[jdst] += q * row[jsrc]
            src, dst = v_inv[jsrc], v_inv[jdst]
            for t in range(ncols):
                if dst[t]:
                    src[t] -= q * dst[t]

    def col_negate(j):
        for row in a:
            row[j] = -row[j]
        if v is not None:
            for row in v:
                row[j] = -row[j]
            v_inv[j] = [-x for x in v_inv[j]]

    divisors = []
    r0 = 0
    c0 = 0
    while r0 < nrows and c0 < ncols:
        piv = None
        best = 0
        for i in range(r0, nrows):
            row = a[i]
            for j in range(c0, ncols):
                e = row[j]
                if e and (piv is None or abs(e) < best):
                    piv = (i, j)
                    best = abs(e)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        a[r0], a[i] = a[i], a[r0]
        if j != c0:
            col_swap(c0, j)
        while True:
            clean = True
            for i in range(r0 + 1, nrows):
                if a[i][c0]:
                    q = a[i][c0] // a[r0][c0]
                    if q:
                        prow, irow = a[r0], a[i]
                        for jj in range(c0, ncols):
                            if prow[jj]:
                                irow[jj] -= q * prow[jj]
                    if a[i][c0]:
                        a[r0], a[i] = a[i], a[r0]
                        clean = False
            for jj in range(c0 + 1, ncols):
                if a[r0][jj]:
                    q = a[r0][jj] // a[r0][c0]
                    col_addmul(jj, c0, -q)
                    if a[r0][jj]:
                        col_swap(c0, jj)
                        clean = False
            if clean:
                p = a[r0][c0]
                stubborn = None
                for i in range(r0 + 1, nrows):
                    if any(a[i][jj] % p for jj in range(c0 + 1, ncols)):
                        stubborn = i
                        break
                if stubborn is None:
                    break
                # fold the offending row in so the pivot divides everything
                row = a[stubborn]
                prow = a[r0]
                for jj in range(c0, ncols):
                    prow[jj] += row[jj]
        if a[r0][c0] < 0:
            col_negate(c0)
        divisors.append(a[r0][c0])
        r0 += 1
        c0 += 1

    # enforce the divisibility chain d_1 | d_2 | ...
    divisors = _divisor_chain(divisors)
    return SmithForm(tuple(divisors), ncols,
                     None if v is None else tuple(tuple(r) for r in v),
                     None if v_inv is None else tuple(tuple(r) for r in v_inv))


def _divisor_chain(ds: list[int]) -> list[int]:
    """Sort elementary divisors into a divisibility chain.

    The pivoting above already produces a chain in practice; this
    repairs the rare exception by redistributing gcd/lcm between
    offending pairs, which preserves the group Z/d1 x Z/d2.

    Note: the column transform, when tracked, is only used to split the
    free part from the torsion part, and that split is insensitive to
    this final reshuffle of the (nonzero) torsion divisors.
    """
    import math

    ds = list(ds)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds) - 1):
            if ds[i + 1] % ds[i]:
                g = math.gcd(ds[i], ds[i + 1])
                lcm = ds[i] * ds[i + 1] // g
                ds[i], ds[i + 1] = g, lcm
                changed = True
    return ds
