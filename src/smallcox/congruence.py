"""Finite images of small Coxeter groups and level-m membership.

Reducing the integral reflection representation mod m sends a small
Coxeter group onto a finite matrix group; the kernel is the principal
congruence subgroup of level m.  Everything here works with finite
images:

* ``orbit`` is the one breadth-first closure, and the only code that
  lists the elements of a finite group given by a map: the orbit of a
  start element under "apply generator k", in shortlex discovery
  order.  (``crystallo._subset_tree`` writes down the 2^(n-1) subsets
  of Z_2^(n-1) in that same order, with no map.)  Images, subquotient
  checks and the coset tables of :mod:`smallcox.rewriting` all run
  through it, and it alone checks the element budget; only
  ``rewriting.coset_table`` asks it for the action table as well, so
  the other callers never hold one.  Without the action table it steps
  an element only by the letters that ``coxeter.shortlex_moves`` allows
  after the word that discovered it: never its last letter, and never
  one that ends an alternating run in letters j, k of length m_jk that
  starts with the larger letter.  Such a product equals a
  shortlex-smaller word, so it is already listed, and the elements
  come out in the order of stepping every generator.  The precondition
  is that ``step`` is right multiplication in a group image where
  (s_j s_k)^m_jk = 1, with m_jk the bond orders of
  ``FiniteQuotientMap.bond_orders`` (W's exponents, each infinite bond
  replaced by the order of s_j s_k in the image); every
  ``quotient_map`` kind and the ``level`` map satisfy it.  With the
  action table every generator is stepped, because ``coset_table``
  reads every entry to check that each generator acts as an
  involution, so kernels compute no bond orders;
* ``FiniteQuotientMap`` is a finite quotient as ``orbit`` consumes it,
  an identity image and ``step(x, k)`` = x times generator k+1, checked
  against every relator of ``coxeter.relators``, the one list of Coxeter
  relators, whose dihedral ones :mod:`smallcox.rewriting` also walks
  around the cells of a kernel's coset graph.  ``quotient_map`` builds
  adjacent transpositions in S_n (``symmetric``), the reflection
  matrices mod m (``modular``), vectors over Z_2 indexed by odd-bond
  classes (``mod2_abelian``, the mod-2 abelianization) and ``trivial``.
  A ``mod2_abelian`` image is an int bit mask, bit c the coordinate of
  odd-bond class c, so the identity is 0 and a step is one XOR.  No
  element step is cached: a breadth-first orbit steps each (element,
  generator) pair at most once, so a cache would miss every time;
* ``enumerate_image`` lists the image as the orbit of
  ``quotient_map(system, "modular", m)``: the identity under right
  multiplication by the generator matrices mod m;
* ``congruence_member`` decides level-m membership of a word;
* the ``*_quotient_check`` functions identify the subquotients
  "level m over level 3m / 4m / 12m" with the alternating group, the
  even-weight mod-2 vectors, and their direct product, and return a
  ``QuotientCheck`` record.  Each closes one ``_level_map``: the images
  mod m and mod k = 3, 4 or 12 prime to m, which are the image mod km,
  with a ``symmetric``, ``mod2_abelian`` or ``trivial`` image.
  Onto-ness is decided by counting, never by listing the target: n!/2
  distinct even permutations are all of A_n, and 2^(n-2) distinct
  even-weight vectors are all of them.

Every ``symmetric`` and ``modular`` image is encoded here, in one of
two ways.  A ``modular`` map interns its rows with ``tits.row_tables``:
``rows`` lists the distinct canonical residue rows (0..m-1), identity
rows first, and an image is the sequence of its row ids, so the
identity is ``range(rank)`` and equal matrices have equal ids.  The
map first closes the rows that the image can hold, the orbit of
e_1..e_r under the generators, up to the 257th row:

* at most 256 points: ``_translate_map`` builds the map.  An image is
  ``bytes``, each generator's point map is padded to a 256-byte table,
  and a step is one ``bytes.translate`` by it.  The points are the row
  ids of a ``modular`` image with at most 256 rows, or the n points
  that a ``symmetric`` image permutes (n = rank + 1 <= 256);
* past 256 rows: a ``modular`` image is the ``tuple`` of its row ids
  over the same rows and tables, and a step looks each id up in its
  generator's lazily filled table, so the list only grows when a step
  meets a new row.

``bytes`` iterate as ints, hash, and are equal exactly when their ids
are, as tuples do, so ``orbit``, ``FiniteMatrixGroup``, ``_level_map``
and ``rewriting.coset_table`` read either encoding.  Rows are decoded
once, and only when read: ``enumerate_image`` hands the ids and the row
list to a ``FiniteMatrixGroup``, which decodes them on the first read
of its ``rows`` (``image`` without ``--dump`` prints only the order);
``_level_map`` decodes none, since the identity mod m is its identity
image.

The default element budget is 10**7; exceeding it raises
``BudgetExceededError``, which names how many elements were expanded,
rather than truncating silently, since images of infinite Coxeter
groups can be arbitrarily large.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, NamedTuple, Optional, Sequence

from . import perms
from .coxeter import (INF, CoxeterSystem, Word, family_of, relators,
                      shortlex_moves, twin)
from .matrices import Rows, format_matrix
from .tits import evaluate_mod, row_tables, twin_power_matrix

DEFAULT_CAP = 10_000_000


class BudgetExceededError(RuntimeError):
    """Enumeration outgrew its element budget; ``expanded`` elements had
    all their generator steps taken when it did."""

    def __init__(self, budget: int, expanded: int):
        super().__init__(f"image exceeds element budget {budget} "
                         f"({expanded} elements expanded)")
        self.budget = budget
        self.expanded = expanded


class FiniteMatrixGroup:
    """A finite group of matrices mod m, closed under multiplication.

    ``rows`` holds the row tuples of the elements in discovery order
    (identity first, then by shortlex word in the generators).  With
    ``row_list`` the elements come as ids into it, in the encoding of
    the ``modular`` map that ``enumerate_image`` ran.  The first read of
    ``rows`` decodes them, so a caller that reads only ``order``
    decodes nothing.  Two groups are equal when their modulus,
    dimension and rows are.
    """

    def __init__(self, modulus: int, dimension: int, rows: Sequence,
                 row_list: Optional[list] = None):
        self.modulus = modulus
        self.dimension = dimension
        self._elements = rows
        self._row_list = row_list

    @property
    def order(self) -> int:
        return len(self._elements)

    @property
    def rows(self) -> tuple[Rows, ...]:
        if self._row_list is not None:
            row, elements = self._row_list.__getitem__, self._elements
            # in place, so each decoded element takes the memory its ids
            # free
            for i, ids in enumerate(elements):
                elements[i] = tuple(map(row, ids))
            self._elements, self._row_list = tuple(elements), None
        return self._elements

    def __eq__(self, other):
        if not isinstance(other, FiniteMatrixGroup):
            return NotImplemented
        return (self.modulus, self.dimension, self.rows) == \
            (other.modulus, other.dimension, other.rows)

    def __hash__(self):
        return hash((self.modulus, self.dimension, self.rows))


def orbit(start: Hashable, step: Callable, exponents: Sequence,
          cap: int = DEFAULT_CAP, *, with_action: bool = False):
    """Breadth-first orbit of ``start`` under the generators of a group.

    ``step(x, k)`` is the hashable element x times generator k
    (0-based); ``exponents`` has one row per generator.  Returns the
    list of elements in discovery order (start first, then by
    shortlex-least word in the generators).

    Without ``with_action``, x is stepped only by the letters that
    ``coxeter.shortlex_moves(exponents)`` allows after the word that
    discovered x, kept as one automaton state per element.  A skipped
    product equals a shortlex-smaller word and is already seen, so the
    elements and their order are those of stepping every generator,
    provided ``step`` is right multiplication in a group image where
    (s_j s_k)^m_jk = 1 for every finite entry m_jk: a
    ``FiniteQuotientMap`` with its ``bond_orders``.

    With ``with_action`` every generator is stepped, since
    ``rewriting.coset_table`` reads every entry of the action to check
    that each generator acts as an involution, and only the length of
    ``exponents`` is read.  It returns the triple (elements, action,
    words), where ``action[i][k]`` is the index of step(elements[i], k)
    and ``words[i]`` is that shortlex-least word, letters 1..rank,
    recorded when element i is discovered; only that call keeps each
    element's position, action row and word, the others a set of the
    elements seen.  Raises ``BudgetExceededError`` rather than grow
    past ``cap`` elements, and ``ValueError`` for a ``cap`` below 1.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    elements = [start]
    if not with_action:
        moves = shortlex_moves(exponents)
        states = [0]
        seen = {start}
        # both lists grow while they are scanned
        for x, state in zip(elements, states):
            for k, nxt in moves[state]:
                y = step(x, k)
                if y not in seen:
                    if len(elements) >= cap:
                        # the elements before x are the expanded ones
                        raise BudgetExceededError(cap, elements.index(x))
                    seen.add(y)
                    elements.append(y)
                    states.append(nxt)
        return elements
    gens = range(len(exponents))
    index = {start: 0}
    action = []
    words = [()]
    for x, word in zip(elements, words):  # both lists grow while scanned
        row = []
        for k in gens:
            y = step(x, k)
            at = index.get(y)
            if at is None:
                if len(elements) >= cap:
                    raise BudgetExceededError(cap, len(action))
                at = index[y] = len(elements)
                elements.append(y)
                words.append(word + (k + 1,))
            row.append(at)
        action.append(tuple(row))
    return elements, action, words


def enumerate_image(system: CoxeterSystem, m: int,
                    cap: int = DEFAULT_CAP) -> FiniteMatrixGroup:
    """The image of a small system mod m, as an explicit finite group:
    the orbit of ``quotient_map(system, "modular", m)``, its row ids
    decoded when the group's rows are first read."""
    qmap = quotient_map(system, "modular", m)
    elements = orbit(qmap.identity_image, qmap.step, qmap.bond_orders(cap),
                     cap)
    return FiniteMatrixGroup(m, system.rank, elements, qmap.rows)


def congruence_member(system: CoxeterSystem, word: Word, m: int) -> bool:
    """Is the word in the principal congruence subgroup of level m?"""
    return evaluate_mod(system, word, m).is_identity()


# ---------------------------------------------------------------------------
# finite quotient maps: an identity image and a generator step


class RelationCheckError(ValueError):
    """Proposed generator images violate a defining relation."""


class FiniteQuotientMap:
    """A map of a Coxeter system onto a finite group.

    ``step(x, k)`` is the image x times the image of generator k+1
    (k 0-based); images are hashable, so ``orbit`` runs on them as they
    are.  Construction checks every relator of ``coxeter.relators``
    (the squares s_i^2, then each finite bond (s_i s_j)^m_ij) and raises
    ``RelationCheckError`` on the first that fails.  For the ``modular``
    kind ``modulus`` is m and ``rows`` is the row list that its images
    index into.  A ``level`` map, which ``_level_map`` builds from three
    maps, has the triple of their images and steps all three.

    ``bond_orders`` gives ``orbit`` the orders of the pair products
    s_i s_j in the image, so that it can skip the steps that no
    shortlex-least word takes.  They are the orders of a group only when
    ``step`` is right multiplication in a group, which every
    ``quotient_map`` kind and the ``level`` map is; ``coset_table``
    steps every generator and reads none.
    """

    __slots__ = ("system", "kind", "identity_image", "step", "modulus",
                 "rows")

    def __init__(self, system: CoxeterSystem, kind: str,
                 identity_image: Hashable,
                 step: Callable[[Hashable, int], Hashable],
                 modulus: Optional[int] = None, rows: Optional[list] = None):
        self.system = system
        self.kind = kind
        self.identity_image = identity_image
        self.step = step
        self.modulus = modulus
        self.rows = rows
        for rel in relators(system):
            if self.image_of_word(rel) != self.identity_image:
                i, j = rel[:2]
                raise RelationCheckError(
                    f"image of generator {i} is not an involution" if i == j
                    else f"bond relation ({i},{j})^{len(rel) // 2} fails "
                         "in the image")

    def image_of_word(self, word: Sequence[int]):
        """Image of a word in the generators 1..rank, checked by
        ``CoxeterSystem.check_word``."""
        out = self.identity_image
        for letter in self.system.check_word(word):
            out = self.step(out, letter - 1)
        return out

    def bond_orders(self, limit: int = DEFAULT_CAP):
        """The exponent matrix of the system with each infinite bond
        m_ij replaced by the order of s_i s_j in the image, 1 included.

        The order is found by stepping s_i s_j from the identity image
        until it comes back.  A walk that meets an element other than
        the identity twice, or passes ``limit`` elements, keeps ``INF``,
        which is never wrong: W has no relation on that bond.
        """
        one, step = self.identity_image, self.step
        orders = [list(row) for row in self.system.exponents]
        for i, row in enumerate(orders):
            for j in range(i + 1, len(row)):
                if row[j] is not INF:
                    continue
                x, met = step(step(one, i), j), set()
                while x != one and x not in met and len(met) < limit:
                    met.add(x)
                    x = step(step(x, i), j)
                if x == one:
                    row[j] = orders[j][i] = len(met) + 1
        return tuple(map(tuple, orders))


def odd_bond_classes(system: CoxeterSystem) -> list[int]:
    """Class index (0-based) of each generator under odd-bond merging.

    Generators joined by an odd exponent map to the same coordinate of
    the mod-2 abelianization; classes are numbered by smallest member.
    """
    least = list(range(system.rank))  # smallest member of each class
    for i in range(system.rank):
        for j in range(i + 1, system.rank):
            m = system.exponents[i][j]
            if m is not INF and m % 2 == 1 and least[i] != least[j]:
                lo, hi = sorted((least[i], least[j]))
                least = [lo if x == hi else x for x in least]
    roots = sorted(set(least))
    return [roots.index(x) for x in least]


def _translate_map(system: CoxeterSystem, kind: str, moves, points: int,
                   start: int, modulus: Optional[int] = None,
                   rows: Optional[list] = None) -> FiniteQuotientMap:
    """A map whose images are ``bytes`` of points: ``moves[k]`` lists
    where generator k+1 sends each point, read only once the points are
    known to fit in a byte, and the identity is ``bytes(range(start))``.
    """
    if points > 256:
        raise ValueError(f"{kind} quotient needs at most 256 points, "
                         f"got {points}")
    pad = bytes(range(points, 256))
    tables = [bytes(move) + pad for move in moves]
    return FiniteQuotientMap(system, kind, bytes(range(start)),
                             lambda x, k: x.translate(tables[k]), modulus,
                             rows)


def _symmetric_map(system: CoxeterSystem, m) -> FiniteQuotientMap:
    if family_of(system) in (None, "universal"):
        raise RelationCheckError(
            "symmetric quotient needs a twin, triplet or symmetric system")
    n = system.rank + 1
    # p times the swap is i -> swap[p[i]]: p translated by the swap
    return _translate_map(system, "symmetric",
                          (perms.adjacent_transposition(n, i)
                           for i in range(1, n)), n, n)


def _modular_map(system: CoxeterSystem, m) -> FiniteQuotientMap:
    if m is None or m < 2:
        raise ValueError(f"modular quotient needs m >= 2, got {m}")
    rows, tables = row_tables(system, m)
    i = 0
    while i < len(rows) <= 256:
        for table in tables:
            table[i]  # interns row i times the generator
        i += 1
    if len(rows) <= 256:
        return _translate_map(system, "modular",
                              (map(table.__getitem__, range(len(rows)))
                               for table in tables),
                              len(rows), system.rank, m, rows)
    steps = [table.__getitem__ for table in tables]
    return FiniteQuotientMap(system, "modular", tuple(range(system.rank)),
                             lambda ids, k: tuple(map(steps[k], ids)), m,
                             rows)


def _mod2_abelian_map(system: CoxeterSystem, m) -> FiniteQuotientMap:
    bits = [1 << c for c in odd_bond_classes(system)]
    return FiniteQuotientMap(system, "mod2_abelian", 0,
                             lambda v, k: v ^ bits[k])


def _trivial_map(system: CoxeterSystem, m) -> FiniteQuotientMap:
    return FiniteQuotientMap(system, "trivial", (0,), lambda x, k: x)


_QUOTIENT_BUILDERS = {"symmetric": _symmetric_map, "modular": _modular_map,
                      "mod2_abelian": _mod2_abelian_map,
                      "trivial": _trivial_map}


def quotient_map(system: CoxeterSystem, kind: str,
                 m: Optional[int] = None) -> FiniteQuotientMap:
    """Build one of the standard finite quotients; ``m`` is the modulus
    of the ``modular`` kind, and only of that kind."""
    if kind not in _QUOTIENT_BUILDERS:
        raise ValueError(f"unknown quotient kind {kind!r}")
    if m is not None and kind != "modular":
        raise ValueError(f"m is only for the modular quotient, not {kind!r}")
    return _QUOTIENT_BUILDERS[kind](system, m)


# ---------------------------------------------------------------------------
# subquotients: the closure carries a third image along the matrices


class QuotientCheck(NamedTuple):
    """Outcome of one subquotient identification."""

    kind: str
    n: int
    m: int
    image_order: int
    kernel_order: int
    expected_kernel_order: int
    ok: bool
    detail: str = ""


def _level_map(system: CoxeterSystem, m: int, k: int, aux: str, cap: int):
    """Close the images mod m and mod k, k prime to m, with the image
    under ``quotient_map(system, aux)``, as one ``level`` map that steps
    all three and walks its own ``bond_orders``.  By the Chinese
    remainder theorem the pair (mod m, mod k) is the image mod km, and
    on the kernel of reduction mod m the image mod k stands for it.
    Returns (order, mapping, well_defined, injective): the orbit's size,
    the mod-k -> auxiliary map over the kernel, and whether no mod-k
    image meets two auxiliaries and no auxiliary two mod-k images.
    """
    maps = (quotient_map(system, "modular", m),
            quotient_map(system, "modular", k), quotient_map(system, aux))
    f, g, h = (qmap.step for qmap in maps)
    level = FiniteQuotientMap(system, "level",
                              tuple(qmap.identity_image for qmap in maps),
                              lambda x, i: (f(x[0], i), g(x[1], i),
                                            h(x[2], i)))
    triples = orbit(level.identity_image, level.step,
                    level.bond_orders(cap), cap)
    one = maps[0].identity_image
    mapping: dict = {}
    well_defined = True
    for a, b, s in triples:
        if a == one:
            if b in mapping and mapping[b] != s:
                well_defined = False
            mapping[b] = s
    injective = len(set(mapping.values())) == len(mapping)
    return len(triples), mapping, well_defined, injective


def alternating_quotient_check(n: int, m: int,
                               cap: int = DEFAULT_CAP) -> QuotientCheck:
    """Compare level m over level 3m with the alternating group A_n.

    Closes the images of X_i mod m and mod 3 with the transposition
    (i, i+1) in the twin group on n strands (the ``symmetric`` quotient
    map), restricts to those trivial mod m, and tests that the induced
    matrix -> permutation map is well-defined, injective, lands in A_n,
    and hits all of A_n.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if m % 3 == 0:
        raise ValueError(f"need 3 not dividing m, got {m}")
    order, mapping, well_defined, injective = _level_map(
        twin(n), m, 3, "symmetric", cap)
    values = set(mapping.values())
    all_even = all(perms.is_even(s) for s in values)
    # a set of n!/2 even permutations is A_n
    onto = all_even and len(values) == math.factorial(n) // 2
    ok = well_defined and injective and all_even and onto
    detail = (f"well_defined={well_defined} injective={injective} "
              f"even={all_even} onto={onto}")
    return QuotientCheck("alternating", n, m, order, len(mapping),
                         math.factorial(n) // 2, ok, detail)


def even_vector_quotient_check(n: int, m: int,
                               cap: int = DEFAULT_CAP) -> QuotientCheck:
    """Compare level m over level 4m with the even-weight mod-2 vectors.

    Same construction, mod m and mod 4, with the auxiliary the mod-2
    exponent vector of the word (the ``mod2_abelian`` quotient map, a
    bit mask with bit i-1 for s_i: the twin group has no odd bonds); the
    kernel of reduction mod odd m must biject onto the 2^(n-2) vectors
    of even weight in Z_2^(n-1).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if m < 2 or m % 2 == 0:
        raise ValueError(f"need odd m >= 3, got {m}")
    order, mapping, well_defined, injective = _level_map(
        twin(n), m, 4, "mod2_abelian", cap)
    values = set(mapping.values())
    # a set of 2^(n-2) even-weight vectors in Z_2^(n-1) is all of them
    onto = (all(v.bit_count() % 2 == 0 for v in values)
            and len(values) == 2 ** (n - 2))
    ok = well_defined and injective and onto
    detail = f"well_defined={well_defined} injective={injective} onto={onto}"
    return QuotientCheck("even-vectors", n, m, order, len(mapping),
                         2 ** (n - 2), ok, detail)


def product_quotient_check(n: int, m: int,
                           cap: int = DEFAULT_CAP) -> QuotientCheck:
    """Compare level m over level 12m with A_n x (even vectors).

    The closure runs mod m and mod 12 with the ``trivial`` auxiliary;
    the 12m-kernel order counts the mod-12 images over the kernel.  The
    check passes when both component checks pass and that order is
    exactly the product of the component kernel orders.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if m % 2 == 0 or m % 3 == 0:
        raise ValueError(f"need m odd and prime to 3, got {m}")
    alt = alternating_quotient_check(n, m, cap)
    vec = even_vector_quotient_check(n, m, cap)
    order, mapping, _, _ = _level_map(twin(n), m, 12, "trivial", cap)
    kernel_order = len(mapping)
    expected = alt.expected_kernel_order * vec.expected_kernel_order
    ok = alt.ok and vec.ok and kernel_order == alt.kernel_order * vec.kernel_order
    detail = (f"alt={alt.kernel_order} vec={vec.kernel_order} "
              f"combined={kernel_order}")
    return QuotientCheck("product", n, m, order, kernel_order,
                         expected, ok, detail)


def minimal_congruence_power(m: int) -> int:
    """Smallest k >= 1 with (s_1 s_2)^k trivial mod m in the rank-2
    twin group; equals m for odd m and m/2 for even m, because the
    power matrix [[2k+1, -2k], [2k, 1-2k]] is trivial mod m exactly
    when m divides 2k."""
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    for k in range(1, 2 * m + 1):
        if twin_power_matrix(k).reduce(m).is_identity():
            return k
    raise AssertionError("unreachable: k = m always works")


# ---------------------------------------------------------------------------
# group dump format


def format_group_dump(group: FiniteMatrixGroup) -> str:
    """Header "modulus m, dimension d, order N", then the N matrices."""
    return (f"modulus {group.modulus}, dimension {group.dimension}, "
            f"order {group.order}\n" +
            "".join("\n" + format_matrix(rows) for rows in group.rows))
