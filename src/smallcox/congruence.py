"""Finite congruence images and level-m membership.

Reducing the integral reflection representation mod m sends a small
Coxeter group onto a finite matrix group; the kernel is the principal
congruence subgroup of level m.  Everything here works with those
finite images:

* ``orbit`` is the one breadth-first closure: the orbit of a start
  element under "apply generator k", in shortlex discovery order, with
  its action table.  Images, subquotient checks and the coset tables of
  :mod:`smallcox.rewriting` all run through it;
* ``enumerate_image`` lists the image as the orbit of the identity under
  right multiplication by the generator matrices;
* ``congruence_member`` decides level-m membership of a word;
* the ``*_quotient_check`` functions identify the subquotients
  "level m over level 3m / 4m / 12m" with the alternating group, the
  even-weight mod-2 vectors, and their direct product; their orbit
  carries a second coordinate (a permutation, a bit vector, or a matrix
  mod m) along the matrix and returns a ``QuotientCheck`` record;
* ``product_generation_check`` confirms at image level that two coprime
  levels together generate the full even part.

Matrices are keyed by their tuples of canonical residue rows.  The
default element budget is 10**7; exceeding it raises
``BudgetExceededError`` rather than truncating silently, since images of
infinite Coxeter groups can be arbitrarily large.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable

from . import perms
from .coxeter import CoxeterSystem, Word, require_small, twin
from .matrices import ModMatrix, identity_rows, mul_rows, parse_matrix
from .tits import (evaluate_mod, generator_matrix, generator_step,
                   twin_power_matrix)

DEFAULT_CAP = 10_000_000


class BudgetExceededError(RuntimeError):
    """Enumeration outgrew its element budget."""

    def __init__(self, budget: int):
        super().__init__(f"image exceeds element budget {budget}")
        self.budget = budget


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """A finite group of matrices mod m, closed under multiplication.

    ``elements`` are in discovery order (identity first, then by
    shortlex word in the generators); ``element_keys`` holds their row
    tuples for O(1) membership.
    """

    modulus: int
    dimension: int
    elements: tuple[ModMatrix, ...]
    generators: tuple[ModMatrix, ...]
    element_keys: frozenset

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, mat: ModMatrix) -> bool:
        return mat.modulus == self.modulus and mat.rows in self.element_keys


def orbit(start: Hashable, step: Callable, ngens: int,
          cap: int = DEFAULT_CAP) -> tuple[list, list[tuple[int, ...]]]:
    """Breadth-first orbit of ``start`` under ``ngens`` generators.

    ``step(x, k)`` applies generator k (0-based) to the hashable
    element x.  Returns the elements in discovery order (start first,
    then by shortlex word in the generators) and the action table:
    ``action[i][k]`` is the index of step(elements[i], k).  Raises
    ``BudgetExceededError`` rather than grow past ``cap`` elements.
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
                at = index[y] = len(elements)
                elements.append(y)
            row.append(at)
        action.append(tuple(row))
    return elements, action


def enumerate_image(system: CoxeterSystem, m: int,
                    cap: int = DEFAULT_CAP) -> FiniteMatrixGroup:
    """The image of a small system mod m, as an explicit finite group."""
    require_small(system)
    if m < 2:
        raise ValueError(f"modulus {m} < 2")
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = [generator_matrix(system, k).mod(m) for k in range(1, system.rank + 1)]
    rows, _ = orbit(identity_rows(system.rank), generator_step(system, m),
                    system.rank, cap)
    elements = tuple(ModMatrix(r, m) for r in rows)
    keys = frozenset(el.rows for el in elements)
    return FiniteMatrixGroup(m, system.rank, elements, tuple(gens), keys)


def congruence_member(system: CoxeterSystem, word: Word, m: int) -> bool:
    """Is the word in the principal congruence subgroup of level m?"""
    return evaluate_mod(system, word, m).is_identity()


def reduction_kernel(group: FiniteMatrixGroup, m: int) -> FiniteMatrixGroup:
    """Elements of a mod-km group that reduce to the identity mod m.

    This is the image of the level-m congruence subgroup inside the
    mod-km image, so its order is the index of level km inside level m.
    The result carries no distinguished generating set.
    """
    if group.modulus % m:
        raise ValueError(f"{m} does not divide modulus {group.modulus}")
    ident = ModMatrix.identity(group.dimension, m) if m >= 2 else None
    kept = []
    for el in group.elements:
        if m < 2 or el.reduce(m) == ident:
            kept.append(el)
    keys = frozenset(e.rows for e in kept)
    return FiniteMatrixGroup(group.modulus, group.dimension,
                             tuple(kept), (), keys)


# ---------------------------------------------------------------------------
# subquotients: the closure carries a second coordinate along the matrix


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


def _twin_pairs(n: int, modulus: int, aux_step: Callable, aux_identity,
                cap: int) -> list:
    """Orbit of (identity mod ``modulus``, ``aux_identity``) in the twin
    group on n strands; generator k acts on the second coordinate by
    ``aux_step(aux, k)``."""
    step = generator_step(twin(n), modulus)
    pairs, _ = orbit((identity_rows(n - 1), aux_identity),
                     lambda x, k: (step(x[0], k), aux_step(x[1], k)),
                     n - 1, cap)
    return pairs


def _kernel_map(pairs, modulus: int, m: int):
    """Pairs whose matrix part is trivial mod m, as a matrix -> aux map.

    Returns (mapping, well_defined, injective): well-defined means no
    matrix appears with two distinct auxiliaries, injective means no
    auxiliary appears for two distinct matrices.
    """
    mapping: dict = {}
    well_defined = True
    for g, s in pairs:
        if ModMatrix(g, modulus).reduce(m).is_identity():
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
    the twin group on n strands, restricts to pairs whose matrix is
    trivial mod m, and tests that the induced matrix -> permutation map
    is well-defined, injective, lands in A_n, and hits all of A_n.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if m % 3 == 0:
        raise ValueError(f"need 3 not dividing m, got {m}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    aux = [perms.adjacent_transposition(n, i) for i in range(1, n)]
    pairs = _twin_pairs(n, 3 * m, lambda p, k: perms.multiply(p, aux[k]),
                        perms.identity(n), cap)
    mapping, well_defined, injective = _kernel_map(pairs, 3 * m, m)
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
    vector of the word; the kernel of reduction mod odd m must biject
    onto the 2^(n-2) vectors of even weight in Z_2^(n-1).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if m < 2 or m % 2 == 0:
        raise ValueError(f"need odd m >= 3, got {m}")
    r = n - 1

    def flip(v, k):
        return v[:k] + (1 - v[k],) + v[k + 1:]

    pairs = _twin_pairs(n, 4 * m, flip, (0,) * r, cap)
    mapping, well_defined, injective = _kernel_map(pairs, 4 * m, m)
    even_vectors = {v for v in itertools.product((0, 1), repeat=r)
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
    pairs = _twin_pairs(n, 12, generator_step(twin(n), m), ident, cap)
    kernel_order = sum(1 for _, s in pairs if s == ident)
    expected = alt.expected_kernel_order * vec.expected_kernel_order
    ok = alt.ok and vec.ok and kernel_order == alt.kernel_order * vec.kernel_order
    detail = (f"alt={alt.kernel_order} vec={vec.kernel_order} "
              f"combined={kernel_order}")
    return QuotientCheck("product", n, m, len(pairs), kernel_order,
                         expected, ok, detail)


def product_generation_check(n: int, m: int, k: int,
                             cap: int = DEFAULT_CAP) -> bool:
    """Do levels m and k together generate the even part mod mk?

    For coprime m, k >= 3: inside the image G mod mk, the subgroup
    generated by everything trivial mod m together with everything
    trivial mod k must be exactly the determinant-one part of G (the
    image of the even-length words).
    """
    if m < 3 or k < 3:
        raise ValueError(f"need m, k >= 3, got {m}, {k}")
    if math.gcd(m, k) != 1:
        raise ValueError(f"need gcd(m, k) = 1, got {m}, {k}")
    mk = m * k
    group = enumerate_image(twin(n), mk, cap)
    seeds = [el.rows for el in group.elements
             if el.reduce(m).is_identity() or el.reduce(k).is_identity()]
    generated, _ = orbit(identity_rows(n - 1),
                         lambda g, i: mul_rows(g, seeds[i], mk),
                         len(seeds), cap)
    even_part = {el.rows for el in group.elements if el.det() == 1 % mk}
    return set(generated) == even_part


def minimal_congruence_power(m: int) -> int:
    """Smallest k >= 1 with (s_1 s_2)^k trivial mod m in the rank-2
    twin group; equals m for odd m and m/2 for even m, because the
    power matrix [[2k+1, -2k], [2k, 1-2k]] is trivial mod m exactly
    when m divides 2k."""
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    for k in range(1, 2 * m + 1):
        if twin_power_matrix(k).mod(m).is_identity():
            return k
    raise AssertionError("unreachable: k = m always works")


def general_linear_order(d: int, p: int) -> int:
    """|GL(d, Z_p)| for prime p."""
    q = p ** d
    out = 1
    for i in range(d):
        out *= q - p ** i
    return out


# ---------------------------------------------------------------------------
# group dump format


def format_group_dump(group: FiniteMatrixGroup) -> str:
    """Header "modulus m, dimension d, order N", then the N matrices."""
    lines = [f"modulus {group.modulus}, dimension {group.dimension}, "
             f"order {group.order}"]
    for el in group.elements:
        lines.append("")
        for row in el.rows:
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
    elements = []
    for i in range(order):
        block = "\n".join(body[i * d:(i + 1) * d])
        mat = parse_matrix(f"mod {m}\n{block}")
        elements.append(mat)
    keys = frozenset(e.rows for e in elements)
    return FiniteMatrixGroup(m, d, tuple(elements), (), keys)
