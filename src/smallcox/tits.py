"""Integral reflection representation of small Coxeter systems.

For a small system (exponents in {1, 2, 3, inf}) each generator s_k acts
on Z^rank by an involution whose matrix is the identity outside row k.
Row k holds the integer coefficients

    alpha(k, j) = -1, 0, 1, 2   for  j = k,  m_{k,j} = 2, 3, inf,

which is twice the cosine table of the standard bilinear form, the only
values for which that table is integral.  Products of these generator
matrices represent group elements faithfully, so word problems reduce to
exact integer linear algebra; reducing entries mod m gives the finite
congruence images studied in :mod:`smallcox.congruence`.

Right-multiplying by s_k is one rule: column k is negated and each
column j bonded to k (alpha(k, j) != 0) gains alpha(k, j) times it.
``_bonds`` lists those (j, alpha) pairs per generator, and every
product by a generator runs on that list: ``_word_rows`` for the words
of ``evaluate`` and ``evaluate_mod``, and the lazy tables of
``row_tables``.  A word of length L costs O(L * rank * (1 + b))
operations for b bonds per generator: at most 2 for twin and symmetric
systems, rank - 1 for triplet and universal ones.  Row i of x * s_k is
row i of x times s_k, so the rows of a congruence image are the orbit
of e_1..e_r under the generators: ``row_tables`` interns each distinct
residue row once in a row list, and one lazily filled id -> id table
per generator multiplies each row by that generator at most once.
How an image is built from those ids is :mod:`smallcox.congruence`'s.

Closed forms implemented here and cross-checked against plain matrix
multiplication in the test suite:

* ``pair_product_formula``/``pair_product_square_formula`` give the
  entries of s_k s_l and (s_k s_l)^2 directly from the alpha table;
* ``twin_power_matrix`` gives (s_1 s_2)^k in the rank-2 twin group as
  [[2k+1, -2k], [2k, 1-2k]];
* ``pm_coefficients`` gives the quadratic remainder of Y^m - 1 modulo
  (Y-1)^3, which controls the order of s_i s_{i+1} in the mod-2m image.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coxeter import INF, CoxeterSystem, Word, require_small, twin
from .matrices import Matrix, Rows, identity_rows


def alpha(system: CoxeterSystem, k: int, j: int) -> int:
    """Row-k entry of the k-th generator matrix (1-based indices)."""
    require_small(system)
    if not (1 <= k <= system.rank and 1 <= j <= system.rank):
        raise ValueError(f"indices ({k},{j}) outside 1..{system.rank}")
    return _alpha(system.exponents, k - 1, j - 1)


def _alpha(exponents, k0: int, j0: int) -> int:
    if k0 == j0:
        return -1
    m = exponents[k0][j0]
    if m is INF:
        return 2
    if m == 3:
        return 1
    if m == 2:
        return 0
    raise AssertionError("non-small exponent slipped through")


def _alpha_row(system: CoxeterSystem, k0: int) -> list[int]:
    return [_alpha(system.exponents, k0, j0) for j0 in range(system.rank)]


def _bonds(system: CoxeterSystem) -> list[tuple[tuple[int, int], ...]]:
    """For each generator k (0-based), the nonzero off-diagonal entries
    (j, alpha(k, j)) of its row: the columns that s_(k+1) adds to."""
    exps, r = system.exponents, system.rank
    return [tuple((j0, a) for j0 in range(r)
                  if j0 != k0 and (a := _alpha(exps, k0, j0)))
            for k0 in range(r)]


def generator_matrix(system: CoxeterSystem, k: int) -> Matrix:
    """Matrix of the k-th generator: identity except row k."""
    require_small(system)
    if not 1 <= k <= system.rank:
        raise ValueError(f"generator index {k} outside 1..{system.rank}")
    r = system.rank
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    rows[k - 1] = _alpha_row(system, k - 1)
    return Matrix(tuple(map(tuple, rows)))


def _word_rows(system: CoxeterSystem, word: Word,
               m: Optional[int] = None) -> Rows:
    """Rows of the product of a checked word's generator matrices,
    entries reduced mod m after every letter when m is given.

    Right-multiplying by s_k is a column update: a row with entry v in
    column k gets -v there and v * alpha(k, j) added in each bonded
    column j, and rows with v = 0 are left as they are.
    """
    rows = [list(row) for row in identity_rows(system.rank)]
    bonds = _bonds(system)
    for letter in word:
        k0 = letter - 1
        bond = bonds[k0]
        for row in rows:
            v = row[k0]
            if not v:
                continue
            if m is None:
                row[k0] = -v
                for j, a in bond:
                    row[j] += v * a
            else:
                row[k0] = -v % m
                for j, a in bond:
                    row[j] = (row[j] + v * a) % m
    return tuple(map(tuple, rows))


def evaluate(system: CoxeterSystem, word: Word) -> Matrix:
    """Exact image of a word, the product of its generator matrices."""
    require_small(system)
    word = system.check_word(word)
    return Matrix(_word_rows(system, word))


def evaluate_mod(system: CoxeterSystem, word: Word, m: int) -> Matrix:
    """Image of a word with entries reduced mod m after every step."""
    require_small(system)
    if m < 2:
        raise ValueError(f"modulus {m} < 2")
    word = system.check_word(word)
    return Matrix(_word_rows(system, word, m), m)


class _RowIdTable(dict):
    """row id -> id of row * s_(k+1) with entries mod m, filled lazily.

    Row i of rows * s only depends on row i, and a row with a zero in
    column k is left as it is; congruence images repeat a few distinct
    rows over many elements, so each row is multiplied once, and the
    product is interned in the row list that every generator's table
    shares (``index`` maps a row back to its id).
    """

    def __init__(self, bond: tuple[tuple[int, int], ...], k0: int, m: int,
                 rows: list[tuple[int, ...]], index: dict):
        super().__init__()
        self.bond, self.k0, self.m = bond, k0, m
        self.rows, self.index = rows, index

    def __missing__(self, i: int) -> int:
        k0, m = self.k0, self.m
        row = self.rows[i]
        v = row[k0]
        out = i
        if v:
            new = list(row)
            new[k0] = -v % m
            for j, a in self.bond:
                new[j] = (new[j] + v * a) % m
            new = tuple(new)
            out = self.index.get(new)
            if out is None:
                out = self.index[new] = len(self.rows)
                self.rows.append(new)
        self[i] = out
        return out


def row_tables(system: CoxeterSystem, m: int):
    """The interned rows of the congruence image mod m, with their
    generator tables.

    Returns ``(rows, tables)``.  ``rows`` is the list of distinct
    residue rows (0..m-1), starting with the identity rows, so row i of
    the identity has id i; ``tables[k]`` is a ``_RowIdTable`` that
    sends a row id to the id of that row times s_(k+1), filled on first
    lookup and appending any new row to ``rows``.  Rows are interned,
    so equal matrices have equal ids.  Long single words go through the
    in-place loop of ``_word_rows`` instead.
    """
    require_small(system)
    if m < 2:
        raise ValueError(f"modulus {m} < 2")
    rows = list(identity_rows(system.rank))
    index = {row: i for i, row in enumerate(rows)}
    return rows, [_RowIdTable(bond, k0, m, rows, index)
                  for k0, bond in enumerate(_bonds(system))]


def pair_product_formula(system: CoxeterSystem, k: int, l: int) -> Matrix:
    """Entries of s_k s_l written directly from the alpha table.

    Row i is the standard basis vector e_i away from rows k and l; row l
    repeats the l-th generator row; and row k couples the two:
    the (k, l) entry is -alpha(k, l) and the remaining row-k entries are
    alpha(k, j) + alpha(l, j) * alpha(k, l).
    """
    require_small(system)
    if k == l:
        raise ValueError("need two distinct generators")
    r = system.rank
    k0, l0 = k - 1, l - 1
    exps = system.exponents
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    rows[l0] = _alpha_row(system, l0)
    akl = _alpha(exps, k0, l0)
    rows[k0] = [-akl if j == l0 else _alpha(exps, k0, j) + _alpha(exps, l0, j) * akl
                for j in range(r)]
    return Matrix(tuple(map(tuple, rows)))


def pair_product_square_formula(system: CoxeterSystem, k: int, l: int) -> Matrix:
    """Entries of (s_k s_l)^2 in closed form.

    With a = alpha(k, l) the k-row diagonal entry is a^4 - 3a^2 + 1 and
    the rest of rows k and l are polynomials in a and the row-k entries
    of s_k s_l; all other rows are identity.  Must agree with squaring
    ``pair_product_formula`` (the tests check exactly that).
    """
    require_small(system)
    if k == l:
        raise ValueError("need two distinct generators")
    r = system.rank
    k0, l0 = k - 1, l - 1
    exps = system.exponents
    a = _alpha(exps, k0, l0)
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for j0 in range(r):
        if j0 == k0:
            rows[k0][j0] = a ** 4 - 3 * a ** 2 + 1
            rows[l0][j0] = a ** 3 - 2 * a
        elif j0 == l0:
            rows[k0][j0] = -(a ** 3) + 2 * a
            rows[l0][j0] = -(a ** 2) + 1
        else:
            # g is the row-k entry of s_k s_l in column j
            b = _alpha(exps, l0, j0)
            g = _alpha(exps, k0, j0) + b * a
            rows[k0][j0] = g * a ** 2 - a * b
            rows[l0][j0] = a * g
    return Matrix(tuple(map(tuple, rows)))


class PolyCoeffs(NamedTuple):
    """Coefficients (a, b, c) of the quadratic a*Y^2 + b*Y + c."""

    a: int
    b: int
    c: int


def pm_coefficients(m: int) -> PolyCoeffs:
    """Quadratic congruent to Y^m - 1 modulo (Y - 1)^3, for m >= 3.

    The closed form is (m(m-1)/2, -m(m-2), m(m-3)/2); every coefficient
    is divisible by m when m is odd, and by m/2 always, which is what
    forces (s_i s_{i+1})^m into the level-2m congruence subgroup.
    """
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    return PolyCoeffs(m * (m - 1) // 2, -m * (m - 2), m * (m - 3) // 2)


def order_check_2m(n: int, m: int, i: int) -> bool:
    """Does (X_i X_{i+1})^m reduce to the identity mod 2m in the twin
    group on n strands?  True for every valid i by the quadratic above;
    the check is an honest modular exponentiation."""
    if not 1 <= i <= n - 2:
        raise ValueError(f"need 1 <= i <= {n - 2}, got {i}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    system = twin(n)
    pair = evaluate_mod(system, (i, i + 1), 2 * m)
    return (pair ** m).is_identity()


def twin_power_matrix(k: int) -> Matrix:
    """(s_1 s_2)^k in the rank-2 twin group: [[2k+1, -2k], [2k, 1-2k]]."""
    if k < 0:
        raise ValueError("negative power")
    return Matrix(((2 * k + 1, -2 * k), (2 * k, 1 - 2 * k)))
