"""Finite images of small Coxeter groups and level-m membership.

Reducing the integral reflection representation mod m sends a small
Coxeter group onto a finite matrix group; the kernel is the principal
congruence subgroup of level m.  Everything here works with finite
images:

* ``orbit`` is the one breadth-first closure: the orbit of a start
  element under "apply generator k", in shortlex discovery order.
  Images, subquotient checks and the coset tables of
  :mod:`smallcox.rewriting` all run through it; only
  ``rewriting.coset_table`` asks it for the action table as well, so
  the other callers never hold one;
* ``FiniteQuotientMap`` is a finite quotient as ``orbit`` consumes it,
  an identity image and ``step(x, k)`` = x times generator k+1, checked
  against every Coxeter relation.  ``quotient_map`` builds adjacent
  transpositions in S_n (``symmetric``), the reflection matrices mod m
  as row tuples (``modular``), bit vectors indexed by odd-bond classes
  (``mod2_abelian``, the mod-2 abelianization) and ``trivial``;
* ``enumerate_image`` lists the image as the orbit of the identity under
  right multiplication by the generator matrices;
* ``congruence_member`` decides level-m membership of a word;
* the ``*_quotient_check`` functions identify the subquotients
  "level m over level 3m / 4m / 12m" with the alternating group, the
  even-weight mod-2 vectors, and their direct product; their orbit
  carries the image under a second quotient map (``symmetric``,
  ``mod2_abelian`` or ``modular`` mod m) along the matrix and returns a
  ``QuotientCheck`` record.

Matrices mod m are handled as tuples of canonical residue rows
(0..m-1): the closure runs on them and a ``FiniteMatrixGroup`` stores
them, in discovery order.  The default element budget is 10**7;
exceeding it raises ``BudgetExceededError`` rather than truncating
silently, since images of infinite Coxeter groups can be arbitrarily
large.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import xor
from typing import Callable, Hashable, Optional, Sequence

from . import perms
from .coxeter import (INF, CoxeterSystem, Word, family_of, require_small,
                      twin)
from .matrices import Rows, identity_rows, parse_matrix
from .tits import evaluate_mod, generator_step, twin_power_matrix

DEFAULT_CAP = 10_000_000


class BudgetExceededError(RuntimeError):
    """Enumeration outgrew its element budget."""

    def __init__(self, budget: int):
        super().__init__(f"image exceeds element budget {budget}")
        self.budget = budget


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """A finite group of matrices mod m, closed under multiplication.

    ``rows`` holds the row tuples of the elements in discovery order
    (identity first, then by shortlex word in the generators).
    """

    modulus: int
    dimension: int
    rows: tuple[Rows, ...]

    @property
    def order(self) -> int:
        return len(self.rows)


def orbit(start: Hashable, step: Callable, ngens: int,
          cap: int = DEFAULT_CAP, *, with_action: bool = False):
    """Breadth-first orbit of ``start`` under ``ngens`` generators.

    ``step(x, k)`` applies generator k (0-based) to the hashable
    element x.  Returns the list of elements in discovery order (start
    first, then by shortlex word in the generators).  With
    ``with_action`` it returns the pair (elements, action) instead,
    where ``action[i][k]`` is the index of step(elements[i], k); only
    ``rewriting.coset_table`` reads that table, so the other callers
    never hold it.  Raises ``BudgetExceededError`` rather than grow past
    ``cap`` elements.
    """
    index = {start: 0}
    elements = [start]
    action = []
    for x in elements:  # the list grows while it is scanned
        row = []
        for k in range(ngens):
            y = step(x, k)
            at = index.get(y)
            if at is None:
                if len(elements) >= cap:
                    raise BudgetExceededError(cap)
                # only the action table reads positions back; without it
                # one shared value spares an int object per element
                at = index[y] = len(elements) if with_action else True
                elements.append(y)
            row.append(at)
        if with_action:
            action.append(tuple(row))
    return (elements, action) if with_action else elements


def enumerate_image(system: CoxeterSystem, m: int,
                    cap: int = DEFAULT_CAP) -> FiniteMatrixGroup:
    """The image of a small system mod m, as an explicit finite group."""
    require_small(system)
    if m < 2:
        raise ValueError(f"modulus {m} < 2")
    if cap < 1:
        raise ValueError("cap must be positive")
    rows = orbit(identity_rows(system.rank), generator_step(system, m),
                 system.rank, cap)
    return FiniteMatrixGroup(m, system.rank, tuple(rows))


def congruence_member(system: CoxeterSystem, word: Word, m: int) -> bool:
    """Is the word in the principal congruence subgroup of level m?"""
    return evaluate_mod(system, word, m).is_identity()


# ---------------------------------------------------------------------------
# finite quotient maps: an identity image and a generator step


class RelationCheckError(ValueError):
    """Proposed generator images violate a defining relation."""


@dataclass(frozen=True)
class FiniteQuotientMap:
    """A map of a Coxeter system onto a finite group.

    ``step(x, k)`` is the image x times the image of generator k+1
    (k 0-based); images are hashable, so ``orbit`` runs on them as they
    are.  Construction checks every relation (s_i s_j)^m_ij = 1, the
    squares s_i^2 included, and raises ``RelationCheckError`` on the
    first that fails.  ``modulus`` is m for the ``modular`` kind.
    """

    system: CoxeterSystem
    kind: str
    identity_image: Hashable
    step: Callable[[Hashable, int], Hashable]
    modulus: Optional[int] = None

    def __post_init__(self):
        ident, r = self.identity_image, self.system.rank
        for i in range(1, r + 1):
            if self.image_of_word((i, i)) != ident:
                raise RelationCheckError(
                    f"image of generator {i} is not an involution")
            for j in range(i + 1, r + 1):
                m = self.system.exponent(i, j)
                if m is not INF and self.image_of_word((i, j) * m) != ident:
                    raise RelationCheckError(
                        f"bond relation ({i},{j})^{m} fails in the image")

    def image_of_word(self, word: Sequence[int]):
        """Image of a word; a signed letter -y maps like y, since every
        generator image is an involution."""
        out = self.identity_image
        for letter in word:
            out = self.step(out, abs(letter) - 1)
        return out


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


def _symmetric_map(system: CoxeterSystem, m) -> FiniteQuotientMap:
    if family_of(system) in (None, "universal"):
        raise RelationCheckError(
            "symmetric quotient needs a twin, triplet or symmetric system")
    n = system.rank + 1
    swaps = [perms.adjacent_transposition(n, i) for i in range(1, n)]
    return FiniteQuotientMap(system, "symmetric", perms.identity(n),
                             lambda p, k: perms.multiply(p, swaps[k]))


def _modular_map(system: CoxeterSystem, m) -> FiniteQuotientMap:
    if m is None or m < 2:
        raise ValueError(f"modular quotient needs m >= 2, got {m}")
    return FiniteQuotientMap(system, "modular", identity_rows(system.rank),
                             generator_step(system, m), m)


def _mod2_abelian_map(system: CoxeterSystem, m) -> FiniteQuotientMap:
    classes = odd_bond_classes(system)
    t = max(classes) + 1
    units = [tuple(int(c == own) for c in range(t)) for own in classes]
    # vector -> vector + unit k, each distinct vector built once per
    # generator and then shared by every orbit element that carries it
    flips = [{} for _ in units]

    def step(v, k):
        w = flips[k].get(v)
        if w is None:
            w = flips[k][v] = tuple(map(xor, v, units[k]))
        return w

    return FiniteQuotientMap(system, "mod2_abelian", (0,) * t, step)


def _trivial_map(system: CoxeterSystem, m) -> FiniteQuotientMap:
    return FiniteQuotientMap(system, "trivial", (0,), lambda x, k: x)


_QUOTIENT_BUILDERS = {"symmetric": _symmetric_map, "modular": _modular_map,
                      "mod2_abelian": _mod2_abelian_map,
                      "trivial": _trivial_map}


def quotient_map(system: CoxeterSystem, kind: str,
                 m: Optional[int] = None) -> FiniteQuotientMap:
    """Build one of the standard finite quotients; ``m`` is the modulus
    of the ``modular`` kind and is ignored by the others."""
    if kind not in _QUOTIENT_BUILDERS:
        raise ValueError(f"unknown quotient kind {kind!r}")
    return _QUOTIENT_BUILDERS[kind](system, m)


# ---------------------------------------------------------------------------
# subquotients: the closure carries a second image along the matrix


@dataclass(frozen=True)
class QuotientCheck:
    """Outcome of one subquotient identification."""

    kind: str
    n: int
    m: int
    image_order: int
    kernel_order: int
    expected_kernel_order: int
    ok: bool
    detail: str = ""


def _twin_pairs(n: int, modulus: int, kind: str, m: Optional[int],
                cap: int) -> list:
    """Image of the twin group on n strands in the product of its
    matrices mod ``modulus`` and ``quotient_map(twin(n), kind, m)``: the
    orbit of the pair of identities, in discovery order."""
    first = quotient_map(twin(n), "modular", modulus)
    second = quotient_map(twin(n), kind, m)
    return orbit((first.identity_image, second.identity_image),
                 lambda x, k: (first.step(x[0], k), second.step(x[1], k)),
                 n - 1, cap)


def _kernel_map(pairs, m: int):
    """Pairs whose matrix part is trivial mod m, as a matrix -> aux map.

    The matrix rows are residues mod a multiple of m, so reducing them
    entrywise mod m and comparing with the identity decides the kernel.
    Returns (mapping, well_defined, injective): well-defined means no
    matrix appears with two distinct auxiliaries, injective means no
    auxiliary appears for two distinct matrices.
    """
    ident = identity_rows(len(pairs[0][0]))
    mapping: dict = {}
    well_defined = True
    for g, s in pairs:
        if all(tuple(e % m for e in row) == one
               for row, one in zip(g, ident)):
            if g in mapping and mapping[g] != s:
                well_defined = False
            mapping[g] = s
    values = set(mapping.values())
    injective = len(values) == len(mapping)
    return mapping, well_defined, injective


def alternating_quotient_check(n: int, m: int,
                               cap: int = DEFAULT_CAP) -> QuotientCheck:
    """Compare level m over level 3m with the alternating group A_n.

    Builds the closure of (X_i mod 3m, transposition (i, i+1)) pairs in
    the twin group on n strands (the second coordinate is the
    ``symmetric`` quotient map), restricts to pairs whose matrix is
    trivial mod m, and tests that the induced matrix -> permutation map
    is well-defined, injective, lands in A_n, and hits all of A_n.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if m % 3 == 0:
        raise ValueError(f"need 3 not dividing m, got {m}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    pairs = _twin_pairs(n, 3 * m, "symmetric", None, cap)
    mapping, well_defined, injective = _kernel_map(pairs, m)
    all_even = all(perms.is_even(s) for s in mapping.values())
    onto = set(mapping.values()) == set(perms.alternating(n))
    ok = well_defined and injective and all_even and onto
    detail = (f"well_defined={well_defined} injective={injective} "
              f"even={all_even} onto={onto}")
    return QuotientCheck("alternating", n, m, len(pairs), len(mapping),
                         math.factorial(n) // 2, ok, detail)


def even_vector_quotient_check(n: int, m: int,
                               cap: int = DEFAULT_CAP) -> QuotientCheck:
    """Compare level m over level 4m with the even-weight mod-2 vectors.

    Same construction with the second coordinate the mod-2 exponent
    vector of the word (the ``mod2_abelian`` quotient map: the twin
    group has no odd bonds); the kernel of reduction mod odd m must
    biject onto the 2^(n-2) vectors of even weight in Z_2^(n-1).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if m < 2 or m % 2 == 0:
        raise ValueError(f"need odd m >= 3, got {m}")
    pairs = _twin_pairs(n, 4 * m, "mod2_abelian", None, cap)
    mapping, well_defined, injective = _kernel_map(pairs, m)
    even_vectors = {v for v in itertools.product((0, 1), repeat=n - 1)
                    if sum(v) % 2 == 0}
    onto = set(mapping.values()) == even_vectors
    ok = well_defined and injective and onto
    detail = f"well_defined={well_defined} injective={injective} onto={onto}"
    return QuotientCheck("even-vectors", n, m, len(pairs), len(mapping),
                         2 ** (n - 2), ok, detail)


def product_quotient_check(n: int, m: int,
                           cap: int = DEFAULT_CAP) -> QuotientCheck:
    """Compare level m over level 12m with A_n x (even vectors).

    Since gcd(12, m) = 1 for odd m prime to 3, an element mod 12m is a
    pair (mod 12, mod m); the closure runs over those pairs instead of
    one huge modulus.  The check passes when both component checks pass
    and the 12m-kernel order is exactly the product of the component
    kernel orders.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if m % 2 == 0 or m % 3 == 0:
        raise ValueError(f"need m odd and prime to 3, got {m}")
    alt = alternating_quotient_check(n, m, cap)
    vec = even_vector_quotient_check(n, m, cap)
    ident = identity_rows(n - 1)
    pairs = _twin_pairs(n, 12, "modular", m, cap)
    kernel_order = sum(1 for _, s in pairs if s == ident)
    expected = alt.expected_kernel_order * vec.expected_kernel_order
    ok = alt.ok and vec.ok and kernel_order == alt.kernel_order * vec.kernel_order
    detail = (f"alt={alt.kernel_order} vec={vec.kernel_order} "
              f"combined={kernel_order}")
    return QuotientCheck("product", n, m, len(pairs), kernel_order,
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
    lines = [f"modulus {group.modulus}, dimension {group.dimension}, "
             f"order {group.order}"]
    for rows in group.rows:
        lines.append("")
        for row in rows:
            lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_group_dump(text: str) -> FiniteMatrixGroup:
    lines = text.splitlines()
    header = lines[0].replace(",", " ").split()
    m = int(header[1])
    d = int(header[3])
    order = int(header[5])
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != order * d:
        raise ValueError(f"expected {order * d} matrix rows, found {len(body)}")
    rows = []
    for i in range(order):
        block = "\n".join(body[i * d:(i + 1) * d])
        rows.append(parse_matrix(f"mod {m}\n{block}").rows)
    return FiniteMatrixGroup(m, d, tuple(rows))
