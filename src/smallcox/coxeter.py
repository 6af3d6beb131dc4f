"""Coxeter systems with exponents in {1, 2, 3, infinity}.

Conventions used throughout the package:

* A system of rank r is a symmetric r x r exponent matrix m with
  m[i][i] = 1 and m[i][j] >= 2 off the diagonal.  An infinite exponent
  is stored as ``None`` and written as the token ``"inf"`` in text files.
* Generators are numbered 1..r (matching the usual s_1, ..., s_{r}).
* A word is a tuple of generator indices; the empty tuple is the
  identity.  Generators are involutions, so no inverse letters exist and
  the inverse of a word is its reversal.

A system is *small* when every exponent lies in {1, 2, 3, inf}; these
are exactly the systems whose reflection representation can be written
over the integers (see :mod:`smallcox.tits`).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

INF = None  # infinite exponent marker; text token "inf"

Word = tuple[int, ...]


class CoxeterError(ValueError):
    """Base class for invalid systems, graphs and words."""


class NonSymmetricMatrixError(CoxeterError):
    pass


class BadDiagonalError(CoxeterError):
    pass


class BadOffDiagonalError(CoxeterError):
    pass


class NonSmallSystemError(CoxeterError):
    """Raised when an exponent outside {1, 2, 3, inf} reaches an
    operation that only makes sense over the integers."""


class CoxeterSystem:
    """A finite-rank Coxeter system, determined by its exponent matrix.

    Immutable and hashable; two systems are equal when their exponent
    matrices are."""

    __slots__ = ("exponents",)
    exponents: tuple[tuple[Optional[int], ...], ...]

    def __init__(self, exponents: tuple[tuple[Optional[int], ...], ...]):
        object.__setattr__(self, "exponents", exponents)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of a CoxeterSystem")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"CoxeterSystem(exponents={self.exponents!r})"

    @property
    def rank(self) -> int:
        return len(self.exponents)

    def exponent(self, i: int, j: int) -> Optional[int]:
        """Exponent m_{i,j} for 1-based generator indices."""
        return self.exponents[i - 1][j - 1]

    def check_word(self, word: Iterable[int]) -> Word:
        """The word as a tuple, every letter in 1..rank, else
        ``CoxeterError``: the one check on words in the generators."""
        word = tuple(word)
        rank = self.rank
        for letter in word:
            if not 1 <= letter <= rank:
                raise CoxeterError(f"letter {letter} outside 1..{rank}")
        return word


def relators(system: CoxeterSystem) -> tuple[Word, ...]:
    """Every square s_i s_i, then (s_i s_j)^m_ij for each finite bond,
    pairs i < j in order."""
    gens = range(1, system.rank + 1)
    return tuple((i, i) for i in gens) + tuple(
        (i, j) * system.exponent(i, j) for i in gens for j in gens
        if i < j and system.exponent(i, j) is not INF)


def shortlex_moves(exponents) -> list[tuple[tuple[int, int], ...]]:
    """The moves of the local shortlex automaton of a bond-order matrix.

    ``exponents`` is symmetric, with off-diagonal entries >= 1 or
    ``INF``; the diagonal is not read.  A state remembers a word's last
    letter a, the other letter b of its final alternating run in {a, b}
    and that run's length; state 0 is the empty word.  ``moves[state]``
    lists (k, next state) for each 0-based letter k whose append makes
    none of these patterns: k = a; an alternating run of length m_ak
    that starts with the larger letter, or any longer run; k equal
    (m_jk = 1) to a smaller letter j.  If every finite m_jk is a
    relation (s_j s_k)^m_jk = 1 of the group, each pattern turns the
    word into a shortlex-smaller equal one, so every shortlex-least word
    is accepted.  Some words that are not reduced pass too: these are
    only the local braid rules of Brink and Howlett's automaton (Math.
    Ann. 296, 1993), which accepts exactly the reduced words.
    """
    letters = [k for k in range(len(exponents))
               if 1 not in exponents[k][:k]]
    index = {None: 0}
    states = [None]
    moves = []
    for state in states:  # the list grows while it is scanned
        row = []
        for k in letters:
            if state is None:
                nxt = (k, -1, 1)
            else:
                a, b, run = state
                if k == a:
                    continue
                run = run + 1 if k == b else 2
                m = exponents[a][k]
                if m is INF:
                    run = 2  # no rule reads it; keeps the states finite
                elif run > m or (run == m and
                                 (k if run % 2 else a) == max(a, k)):
                    continue
                nxt = (k, a, run)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row.append((k, index[nxt]))
        moves.append(tuple(row))
    return moves


def build_system(exponents) -> CoxeterSystem:
    """Validate an exponent matrix and wrap it as a CoxeterSystem.

    Entries may be integers or ``None``/``"inf"`` for an infinite bond.
    The matrix must be square and symmetric with 1 exactly on the
    diagonal and entries >= 2 elsewhere.
    """
    rows = [tuple(_canonical_exponent(e) for e in row) for row in exponents]
    r = len(rows)
    if any(len(row) != r for row in rows):
        raise CoxeterError("exponent matrix is not square")
    for i in range(r):
        if rows[i][i] != 1:
            raise BadDiagonalError(f"diagonal entry at {i + 1} is {rows[i][i]}, not 1")
    for i in range(r):
        for j in range(r):
            if rows[i][j] != rows[j][i]:
                raise NonSymmetricMatrixError(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ")
            if i != j and rows[i][j] is not INF and rows[i][j] < 2:
                raise BadOffDiagonalError(
                    f"off-diagonal entry at ({i + 1},{j + 1}) is {rows[i][j]} < 2")
    return CoxeterSystem(tuple(rows))


def _canonical_exponent(e):
    if e is INF or e == "inf":
        return INF
    if isinstance(e, bool) or not isinstance(e, int):
        raise CoxeterError(f"bad exponent {e!r}")
    return e


# (near, far) exponents of the chain families: near between consecutive
# generators, far between all others; in the order ``family_of`` tries
_CHAIN_BONDS = {"twin": (INF, 2), "triplet": (3, INF), "symmetric": (3, 2),
                "universal": (INF, INF)}


def named_system(family: str, n: int, m: Optional[int] = None) -> CoxeterSystem:
    """One of the named families, with n >= 2 strands (rank n - 1).

    twin       consecutive bonds inf, distant bonds 2
    triplet    consecutive bonds 3, distant bonds inf
    symmetric  consecutive bonds 3, distant bonds 2 (this is S_n)
    universal  every bond inf
    w_nm       consecutive bonds m, distant bonds 2 (needs m >= 2)

    ``m`` is only for w_nm.  Right-angled systems come from a graph,
    through ``racg_system``.
    """
    if m is not None and family != "w_nm":
        raise CoxeterError(f"m is only for the w_nm family, not {family!r}")
    if n < 2:
        raise CoxeterError(f"need n >= 2, got {n}")
    if family == "w_nm":
        if m is None or m < 2:
            raise CoxeterError(f"w_nm family needs m >= 2, got {m}")
        near, far = m, 2
    elif family in _CHAIN_BONDS:
        near, far = _CHAIN_BONDS[family]
    else:
        raise CoxeterError(f"unknown family {family!r}")
    r = n - 1
    rows = [[1 if i == j else (near if abs(i - j) == 1 else far)
             for j in range(r)] for i in range(r)]
    return build_system(rows)


def family_of(system: CoxeterSystem) -> Optional[str]:
    """The first of twin, triplet, symmetric and universal whose bond
    pattern this system has (so a rank-1 system is twin), or None."""
    r = system.rank
    for name, (near, far) in _CHAIN_BONDS.items():
        if all(system.exponents[i][j] == (near if abs(i - j) == 1 else far)
               for i in range(r) for j in range(r) if i != j):
            return name
    return None


def twin(n: int) -> CoxeterSystem:
    """Twin group T_n: involutions with distant pairs commuting."""
    return named_system("twin", n)


def triplet(n: int) -> CoxeterSystem:
    """Triplet group L_n: involutions with consecutive braid bonds."""
    return named_system("triplet", n)


def symmetric(n: int) -> CoxeterSystem:
    """The symmetric group S_n in its standard Coxeter presentation."""
    return named_system("symmetric", n)


def universal(n: int) -> CoxeterSystem:
    return named_system("universal", n)


def is_small(system: CoxeterSystem) -> bool:
    """True when every exponent lies in {1, 2, 3, inf}."""
    return all(e is INF or e in (1, 2, 3)
               for row in system.exponents for e in row)


def require_small(system: CoxeterSystem) -> None:
    if not is_small(system):
        raise NonSmallSystemError(
            "system has an exponent outside {1, 2, 3, inf}")


# ---------------------------------------------------------------------------
# simple graphs and their right-angled systems


class SimpleGraph(NamedTuple):
    """Undirected graph on vertices 1..vertices, no loops."""

    vertices: int
    edges: frozenset[tuple[int, int]]

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


def simple_graph(vertices: int, edges: Iterable[tuple[int, int]] = ()) -> SimpleGraph:
    if vertices < 0:
        raise CoxeterError("negative vertex count")
    out = set()
    for (i, j) in edges:
        if i == j:
            raise CoxeterError(f"loop at vertex {i}")
        if not (1 <= i <= vertices and 1 <= j <= vertices):
            raise CoxeterError(f"edge ({i},{j}) outside 1..{vertices}")
        out.add((min(i, j), max(i, j)))
    return SimpleGraph(vertices, frozenset(out))


def racg_system(graph: SimpleGraph) -> CoxeterSystem:
    """Right-angled system of a graph: adjacent vertices commute."""
    r = graph.vertices
    rows = [[1 if i == j else (2 if graph.has_edge(i + 1, j + 1) else INF)
             for j in range(r)] for i in range(r)]
    return build_system(rows)


# ---------------------------------------------------------------------------
# text formats


def parse_coxeter_matrix(text: str) -> CoxeterSystem:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CoxeterError("empty matrix file")
    try:
        r = int(lines[0])
    except ValueError:
        raise CoxeterError(f"bad rank line {lines[0]!r}") from None
    if len(lines) != r + 1:
        raise CoxeterError(f"expected {r} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        entries = []
        for tok in ln.split():
            if tok == "inf":
                entries.append(INF)
            else:
                try:
                    entries.append(int(tok))
                except ValueError:
                    raise CoxeterError(f"bad entry {tok!r}") from None
        rows.append(entries)
    return build_system(rows)


def parse_word(text: str) -> Word:
    """Whitespace-separated 1-based indices; an empty line is the identity."""
    try:
        return tuple(map(int, text.split()))
    except ValueError:
        raise CoxeterError(f"bad word {text!r}") from None


def format_word(word: Word) -> str:
    return " ".join(str(x) for x in word)
