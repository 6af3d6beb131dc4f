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

    The matrix is held sparse: ``{col: value}`` rows plus, for each
    column, the set of rows that use it.  The caller's rows are only
    read.

    Pivot rule: the next pivot is a +-1 entry in a shortest live row,
    taking among that row's unit entries the column with the fewest
    rows (the Markowitz cost, which keeps fill low).  Rows wait in
    buckets by length; a row without a unit entry leaves its bucket
    until a row operation changes it.  Row operations clear the pivot
    column, then column operations clear the pivot row.  When no unit
    entry is left, the pivot is an entry of least absolute value and
    Euclid steps run: a remainder in the pivot column or row becomes
    the new, smaller pivot.  Only for a pivot p with |p| > 1, a live
    row with an entry that p does not divide is added to the pivot row
    and the steps resume, so each divisor divides all later ones.

    Transform: with ``want_transform`` every column operation is also
    applied to the sparse columns of V and, inverted, to the sparse
    rows of V^-1.  Row operations never touch V.  On return the columns
    of V (and the rows of V^-1) are ordered pivots first, so A V is zero
    on ``free_columns``, and both come back as dense tuples.
    """
    a: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        entries = {j: e for j, e in enumerate(row) if e}
        if entries:
            a[i] = entries
    col_rows: list[set[int]] = [set() for _ in range(ncols)]
    for i, entries in a.items():
        for j in entries:
            col_rows[j].add(i)
    if want_transform:
        v_cols = [{j: 1} for j in range(ncols)]
        v_inv_rows = [{j: 1} for j in range(ncols)]

    buckets: list[set[int]] = [set() for _ in range(ncols + 1)]
    bucket_of = dict.fromkeys(a, 0)  # 0: waiting for a change
    shortest = 0

    def touch(i):
        # re-bucket row i after it changed; drop it when it is empty
        nonlocal shortest
        if bucket_of[i]:
            buckets[bucket_of[i]].discard(i)
        n = len(a[i])
        if n == 0:
            del a[i], bucket_of[i]
            return
        buckets[n].add(i)
        bucket_of[i] = n
        shortest = min(shortest, n)

    for i in a:
        touch(i)

    def unit_pivot():
        nonlocal shortest
        while shortest <= ncols:
            bucket = buckets[shortest]
            while bucket:
                i = bucket.pop()
                bucket_of[i] = 0
                units = [j for j, e in a[i].items() if e == 1 or e == -1]
                if units:
                    return i, min(units, key=lambda j: (len(col_rows[j]), j))
            shortest += 1
        return None

    def row_addmul(i, r, q):
        # row i += q * row r
        row = a[i]
        for j, e in a[r].items():
            x = row.get(j, 0) + q * e
            if x:
                if j not in row:
                    col_rows[j].add(i)
                row[j] = x
            else:
                del row[j]
                col_rows[j].discard(i)

    pivots: list[int] = []
    divisors: list[int] = []
    while a:
        piv = unit_pivot()
        if piv is None:
            piv = min(((i, j) for i, row in a.items() for j in row),
                      key=lambda ij: abs(a[ij[0]][ij[1]]))
        r, c = piv
        while True:
            # clear column c by row moves; a remainder is the new pivot
            p = a[r][c]
            moved = False
            for i in list(col_rows[c]):
                if i == r:
                    continue
                q = a[i][c] // p
                if q:
                    row_addmul(i, r, -q)
                    touch(i)
                if c in a.get(i, ()):
                    r, p, moved = i, a[i][c], True
            if moved:
                continue
            # column c is now {r}, so a column move only touches row r
            pivot_row = a[r]
            for j in [j for j in pivot_row if j != c]:
                q = pivot_row[j] // p
                if q and want_transform:
                    # column j -= q * column c; V^-1 takes the inverse
                    # row move
                    _axpy(v_cols[j], v_cols[c], -q)
                    _axpy(v_inv_rows[c], v_inv_rows[j], q)
                rest = pivot_row[j] - q * p
                if rest:
                    pivot_row[j] = rest
                    c, moved = j, True
                    break
                del pivot_row[j]
                col_rows[j].discard(r)
            touch(r)
            if moved:
                continue
            if abs(p) > 1:
                stubborn = next((i for i, row in a.items() if i != r and
                                 any(e % p for e in row.values())), None)
                if stubborn is not None:
                    row_addmul(r, stubborn, 1)
                    continue
            break
        col_rows[c].discard(r)
        buckets[bucket_of[r]].discard(r)
        del a[r], bucket_of[r]
        pivots.append(c)
        divisors.append(abs(p))

    divisors = _divisor_chain(divisors)
    if not want_transform:
        return SmithForm(tuple(divisors), ncols)
    done = set(pivots)
    order = pivots + [j for j in range(ncols) if j not in done]
    v = tuple(zip(*(_dense(v_cols[j], ncols) for j in order)))
    v_inv = tuple(_dense(v_inv_rows[j], ncols) for j in order)
    return SmithForm(tuple(divisors), ncols, v, v_inv)


def _dense(vec: dict[int, int], n: int) -> tuple[int, ...]:
    row = [0] * n
    for t, e in vec.items():
        row[t] = e
    return tuple(row)


def _axpy(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src on sparse vectors."""
    for t, e in src.items():
        x = dst.get(t, 0) + q * e
        if x:
            dst[t] = x
        else:
            del dst[t]


def _divisor_chain(ds: list[int]) -> list[int]:
    """Sort elementary divisors into a divisibility chain.

    The elimination above already yields a chain: unit pivots come
    first, and the rescan makes each non-unit pivot divide everything
    left.  This pass only guards that by redistributing gcd/lcm between
    offending pairs, which preserves the group Z/d1 x Z/d2.

    Note: V's pivot columns come first and ``free_columns`` depends only
    on how many divisors there are, so the free/torsion split of the
    transform is insensitive to this reshuffle of the nonzero divisors.
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
