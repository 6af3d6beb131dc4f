"""Exact integer and modular matrices, plus Smith normal form.

One type, ``Matrix(rows, modulus=None)``, holds both: without a modulus
the entries are arbitrary-precision Python integers, with a modulus m
they are canonical residues 0..m-1 (the paper's reduction of the
integral reflection representation mod m).  The constructor is the only
way in: it freezes or reduces its entries.  ``reduce(m)`` passes to Z/m.

The sparse-column form lists a matrix as its columns, each a
``{row: value}`` dict with the zero entries left out; the Smith
transform and the holonomy walk both compute in it, with three
operations: ``mul_columns`` (the product), ``transpose`` (the rows, as
sparse ``{column: value}`` dicts) and ``dense_rows`` (the dense view).

Text formats: one row per line, whitespace-separated decimal integers.
A modular matrix carries an extra first line ``mod m``.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

Rows = tuple[tuple[int, ...], ...]


def _freeze(rows) -> Rows:
    return tuple(tuple(int(e) for e in row) for row in rows)


def identity_rows(d: int) -> Rows:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mul_rows(a: Rows, b: Rows, mod: Optional[int] = None) -> Rows:
    """a * b (entries reduced mod ``mod`` when given).

    The nonzeros of each row of b are listed once, as (col, value)
    pairs, and each product row sums those lists over the nonzeros of
    that row of a, so sparse factors cost only the products of their
    nonzeros.
    """
    width = len(b[0]) if b else 0
    b_pairs = [[(j, y) for j, y in enumerate(b_row) if y] for b_row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, pairs in zip(row, b_pairs):
            if x:
                for j, y in pairs:
                    acc[j] += x * y
        out.append(tuple(acc) if mod is None else tuple(s % mod for s in acc))
    return tuple(out)


Columns = Sequence[dict[int, int]]


def mul_columns(a: Union[Columns, Mapping[int, dict[int, int]]],
                b: Iterable[dict[int, int]]) -> list[dict[int, int]]:
    """a * b for matrices given as sparse columns ``{row: value}``: column
    j of the product sums the columns of a, weighted by the entries of
    column j of b, and leaves its zero entries out.  ``a`` is any
    mapping indexed by row of b: a list, or a dict of the columns that
    b reads."""
    out = []
    for col in b:
        acc: dict[int, int] = {}
        for i, x in col.items():
            for r, y in a[i].items():
                acc[r] = acc.get(r, 0) + x * y
        if 0 in acc.values():  # a sum cancelled
            acc = {r: v for r, v in acc.items() if v}
        out.append(acc)
    return out


def transpose(columns: Columns, nrows: int) -> list[dict[int, int]]:
    """The ``nrows`` rows of a matrix given as sparse columns, as sparse
    ``{column: value}`` dicts: the sparse columns of its transpose."""
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def dense_rows(columns: Columns, nrows: int) -> Rows:
    """A matrix given as sparse columns, as ``nrows`` dense row tuples."""
    rows = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return tuple(map(tuple, rows))


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


class Matrix:
    """A square matrix over Z, or over Z/m when ``modulus`` is m.

    The matrix is immutable and hashable; two matrices are equal when
    their rows and their moduli are.  Only matrices with the same
    modulus multiply.
    """

    __slots__ = ("rows", "modulus")
    rows: Rows
    modulus: Optional[int]

    def __init__(self, rows, modulus: Optional[int] = None):
        if modulus is None:
            rows = _freeze(rows)
        elif modulus < 2:
            raise ValueError(f"modulus {modulus} < 2")
        else:
            rows = tuple(tuple(int(e) % modulus for e in row) for row in rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Matrix")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash((self.rows, self.modulus))

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows!r}, modulus={self.modulus!r})"

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, d: int, m: Optional[int] = None) -> "Matrix":
        return cls(identity_rows(d), m)

    def is_identity(self) -> bool:
        return self.rows == identity_rows(self.dimension)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if other.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        return Matrix(mul_rows(self.rows, other.rows, self.modulus),
                      self.modulus)

    def __pow__(self, k: int) -> "Matrix":
        return Matrix(pow_rows(self.rows, k, self.modulus), self.modulus)

    def reduce(self, m: int) -> "Matrix":
        """The matrix mod m; with a modulus, m must divide it."""
        if m < 2:
            raise ValueError(f"modulus {m} < 2")
        if self.modulus is not None and self.modulus % m:
            raise ValueError(f"{m} does not divide modulus {self.modulus}")
        return Matrix(self.rows, m)

    def det(self) -> int:
        d = det_rows(self.rows)
        return d if self.modulus is None else d % self.modulus

    def __str__(self) -> str:
        head = "" if self.modulus is None else f"mod {self.modulus}\n"
        return head + format_matrix(self.rows)


def format_matrix(rows: Rows) -> str:
    """One line per row, each ending in a newline."""
    return "".join(" ".join(str(e) for e in row) + "\n" for row in rows)


def parse_matrix(text: str) -> Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    mod = None
    if lines and lines[0].startswith("mod "):
        mod = int(lines[0].split()[1])
        lines = lines[1:]
    rows = tuple(tuple(int(tok) for tok in ln.split()) for ln in lines)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    return Matrix(rows, mod)


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


class SmithForm(NamedTuple):
    """U * A * V = diag(divisors) with U, V unimodular.

    ``divisors`` is the nonzero diagonal, each dividing the next.  Only
    the column transform V is kept, since row operations never touch
    it, and only with ``want_transform``:

    * ``columns[i]`` is column i of V as a sparse ``{row: value}`` dict,
      pivots first, so A V is zero on ``free_columns``;
    * ``order[i]`` is the column of A that position i started from;
    * ``free_rows`` holds, for each free position i in turn, row i of
      V^-1 as a sparse dict: the combination of A's columns that V
      sends to e_i.

    V^-1 itself is never formed.  A column move rewrites only the row
    of V^-1 that belongs to the pivot column, so a free column that
    never held the pivot keeps the unit row ``{order[i]: 1}``; then row
    ``order[i]`` of V is e_i as well.  Only a column that a Euclid step
    demoted from pivot, and that ends free, has a longer row.

    ``v`` is V as dense row tuples (None without the transform), built
    from ``columns`` on every read.  It is ncols x ncols and kept only
    for readers outside this package; the package itself reads
    ``columns``.
    """

    divisors: tuple[int, ...]
    ncols: int
    columns: Optional[tuple[dict[int, int], ...]] = None
    order: Optional[tuple[int, ...]] = None
    free_rows: Optional[tuple[dict[int, int], ...]] = None

    @property
    def free_columns(self) -> tuple[int, ...]:
        return tuple(range(len(self.divisors), self.ncols))

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d > 1)

    @property
    def v(self) -> Optional[Rows]:
        if self.columns is None:
            return None
        return dense_rows(self.columns, self.ncols)


def smith_normal_form(rows: Iterable[Iterable[tuple[int, int]]], ncols: int,
                      want_transform: bool = False) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column moves.

    Each row is given as its ``(column, value)`` pairs, zero values
    allowed and skipped: ``d.items()`` of a sparse ``{col: value}`` row,
    or ``enumerate(row)`` of a dense one.  The matrix is held sparse:
    ``{col: value}`` rows plus, for each column, the set of rows that
    use it.  The caller's rows are only read.

    Pivot rule: the next pivot is a +-1 entry in a shortest live row,
    taking among that row's unit entries the column with the fewest
    rows (the Markowitz cost, which keeps fill low).  Rows wait in
    buckets by length; a row without a unit entry leaves its bucket
    until a row operation changes it.  Row operations clear the pivot
    column, then column operations clear the pivot row.  When no unit
    entry is left, the pivot is an entry of least absolute value and
    Euclid steps run: a remainder in the pivot column or row becomes
    the new, smaller pivot.  The pivots found this way give a diagonal
    form but need not divide one another; ``_divisor_chain`` turns them
    into the divisor chain.

    Transform: with ``want_transform`` every column operation is also
    applied to the sparse columns of V; row operations never touch V.
    Column j -= q * column c is, on V^-1, row c += q * row j, so only
    the row of the pivot column moves.  That row is kept while its
    column may still end free, and dropped once the column is a pivot
    for good.  On return V's columns are ordered pivots first, still
    sparse; see ``SmithForm`` for what comes back.
    """
    a: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        entries = {j: e for j, e in row if e}
        if entries:
            a[i] = entries
    col_rows: list[set[int]] = [set() for _ in range(ncols)]
    for i, entries in a.items():
        for j in entries:
            col_rows[j].add(i)
    if want_transform:
        v_cols = [{j: 1} for j in range(ncols)]
        # the rows of V^-1 that moved, while their column may end free
        v_inv_rows: dict[int, dict[int, int]] = {}

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
                    _axpy(v_inv_rows.setdefault(c, {c: 1}),
                          v_inv_rows.get(j) or {j: 1}, q)
                rest = pivot_row[j] - q * p
                if rest:
                    pivot_row[j] = rest
                    c, moved = j, True
                    break
                del pivot_row[j]
                col_rows[j].discard(r)
            touch(r)
            if not moved:
                break
        col_rows[c].discard(r)
        buckets[bucket_of[r]].discard(r)
        del a[r], bucket_of[r]
        if want_transform:
            v_inv_rows.pop(c, None)  # a pivot's row is never read again
        pivots.append(c)
        divisors.append(abs(p))

    divisors = _divisor_chain(divisors)
    if not want_transform:
        return SmithForm(tuple(divisors), ncols)
    done = set(pivots)
    free = [j for j in range(ncols) if j not in done]
    return SmithForm(tuple(divisors), ncols,
                     tuple(v_cols[j] for j in pivots + free),
                     tuple(pivots + free),
                     tuple(v_inv_rows.get(j) or {j: 1} for j in free))


def _axpy(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src on sparse vectors."""
    for t, e in src.items():
        x = dst.get(t, 0) + q * e
        if x:
            dst[t] = x
        else:
            del dst[t]


def _divisor_chain(ds: list[int]) -> list[int]:
    """Turn the diagonal of the elimination into a divisibility chain.

    The elimination pivots units first, but its non-unit pivots come
    in any order and need not divide one another (2 and 3 for
    Z/2 x Z/3).  Replacing each offending neighbour pair (d1, d2) by
    (gcd, lcm) preserves the group Z/d1 x Z/d2; repeated until every
    divisor divides the next, it gives the invariant factors.

    Note: V's pivot columns come first and ``free_columns`` depends only
    on how many divisors there are, so the free/torsion split of the
    transform is insensitive to this reshuffle of the nonzero divisors.
    """
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
