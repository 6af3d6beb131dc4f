"""Subgroup presentations by Schreier rewriting, and abelianization.

Every subgroup handled here is the kernel of a finite quotient map
(``congruence.FiniteQuotientMap``, built by ``congruence.quotient_map``),
so cosets biject with image elements and no Todd-Coxeter style
enumeration is ever needed:

* ``coset_table`` lists the cosets as the orbit of the identity image
  (``congruence.orbit``), recording the shortlex-least coset
  representative word and the action of each generator (all generator
  images are involutions, so the action table is its own inverse); it
  is the one caller that asks ``orbit`` for its action table, which the
  same breadth-first pass fills in;
* ``KernelRewriter(qmap).presentation`` presents the kernel of the map
  on the nontrivial Schreier generators u y (rep of uy)^-1, with one
  rewritten relator per (coset, Coxeter relator) pair; the rewriter
  builds the coset table itself (``rewriter.table``), so a quotient map
  is the one way in to a kernel;
* ``tietze_simplify`` repeatedly eliminates generators that occur
  exactly once in some relator, enough to expose freeness in the cases
  this package cares about; an index from generators to relators keeps
  each elimination to the relators it changes;
* ``abelian_invariants`` reads free rank and torsion off the Smith
  normal form of the relator exponent matrix, whose rows go in sparse,
  as ``(generator, exponent)`` pairs with zero sums left out;
* ``KernelRewriter.conjugation_matrix`` computes the action that an
  ambient word induces on the abelianized kernel, which is what the
  crystallographic checks consume.

``quotient_map`` is importable from here as well: ``cli`` and ``verify``
build their maps as ``rewriting.quotient_map``, and the perfbench
tracer times that binding as the quotient-map layer.

Presentation text format: first line ``gens g``, then one relator per
line as signed generator indices (``1 2 -1 -2``).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

# quotient_map is re-exported (see the module docstring)
from .congruence import (DEFAULT_CAP, FiniteQuotientMap, RelationCheckError,
                         orbit, quotient_map)
from .coxeter import INF, CoxeterSystem, Word
from .matrices import Matrix, SmithForm, smith_normal_form

SignedWord = tuple[int, ...]


class LatticeTorsionError(ValueError):
    """Conjugation asked for an integer matrix but the kernel
    abelianization has torsion."""

    def __init__(self, torsion: tuple[int, ...]):
        super().__init__(f"kernel abelianization has torsion {torsion}")
        self.torsion = torsion


@dataclass(frozen=True)
class Presentation:
    generators: int
    relators: tuple[SignedWord, ...]

    def __post_init__(self):
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > self.generators:
                    raise ValueError(f"relator letter {letter} outside range")


def format_presentation(pres: Presentation) -> str:
    lines = [f"gens {pres.generators}"]
    lines.extend(" ".join(str(x) for x in rel) for rel in pres.relators)
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("gens "):
        raise ValueError("presentation text must start with 'gens g'")
    g = int(lines[0].split()[1])
    rels = tuple(tuple(int(tok) for tok in ln.split()) for ln in lines[1:])
    return Presentation(g, rels)


def coxeter_presentation(system: CoxeterSystem) -> Presentation:
    """Generator squares plus one braid-type relator per finite bond."""
    rels: list[SignedWord] = []
    r = system.rank
    for i in range(1, r + 1):
        rels.append((i, i))
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            m = system.exponent(i, j)
            if m is not INF:
                rels.append((i, j) * m)
    return Presentation(r, tuple(rels))


# ---------------------------------------------------------------------------
# coset tables


@dataclass(frozen=True)
class CosetTable:
    """Cosets of a kernel, one per image element.

    ``transversal[c]`` is the shortlex-least word whose image lands in
    coset c (coset 0 is the kernel itself, with the empty word), and
    ``action[c][y-1]`` is the coset of (representative of c) * s_y.
    Generator images are involutions, so each action column is a
    self-inverse permutation of the cosets.
    """

    transversal: tuple[Word, ...]
    action: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.transversal)


def coset_table(qmap: FiniteQuotientMap, cap: int = DEFAULT_CAP) -> CosetTable:
    r = qmap.system.rank
    _, action = orbit(qmap.identity_image, qmap.step, r, cap,
                      with_action=True)
    # coset t is discovered at the first table entry that names it, and
    # its representative extends that entry's coset by one letter
    words: list[Word] = [()]
    for c, row in enumerate(action):
        for y, t in enumerate(row):
            if t == len(words):
                words.append(words[c] + (y + 1,))
    table = CosetTable(tuple(words), tuple(action))
    for c in range(table.count):
        for y in range(r):
            if table.action[table.action[c][y]][y] != c:
                raise RelationCheckError("generator action is not an involution")
    return table


# ---------------------------------------------------------------------------
# free-group word utilities (signed letters)


def free_reduce_signed(word: Sequence[int]) -> SignedWord:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclically_reduce(word: Sequence[int]) -> SignedWord:
    w = list(free_reduce_signed(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def invert_signed(word: Sequence[int]) -> SignedWord:
    return tuple(-x for x in reversed(word))


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


class KernelRewriter:
    """Rewriting machinery for the kernel of a finite quotient map.

    Built from the map alone: ``table`` is its coset table (at most
    ``cap`` cosets) and the ambient relators are
    ``coxeter_presentation(qmap.system)``.  The Schreier generator for a
    pair (coset c, generator y) is the kernel element
    u_c s_y (u_{c.y})^-1; pairs where u_c s_y is itself the chosen
    representative (the breadth-first tree edges) are trivial and get no
    index.  Rewriting scans a word letter by letter, emitting the index
    of each pair it crosses.

    ``presentation`` is the Reidemeister-Schreier presentation of the
    kernel: a kernel of index N under g ambient generators gets exactly
    N*g - (N-1) generators and one freely reduced relator per (coset,
    ambient relator) pair, empty rewrites dropped.
    """

    def __init__(self, qmap: FiniteQuotientMap, cap: int = DEFAULT_CAP):
        pres = coxeter_presentation(qmap.system)
        self.table = table = coset_table(qmap, cap)
        n_cosets = table.count
        g = pres.generators
        self.pair_index: dict[tuple[int, int], int] = {}
        self.pairs: list[tuple[int, int]] = []
        for c in range(n_cosets):
            for y in range(1, g + 1):
                t = table.action[c][y - 1]
                if table.transversal[c] + (y,) == table.transversal[t]:
                    continue  # tree edge
                self.pair_index[(c, y)] = len(self.pairs)
                self.pairs.append((c, y))
        self.num_schreier = len(self.pairs)
        rels = []
        for c in range(n_cosets):
            for rel in pres.relators:
                w = free_reduce_signed(self.rewrite(rel, start=c))
                if w:
                    rels.append(w)
        self.presentation = Presentation(self.num_schreier, tuple(rels))
        self._smith: Optional[SmithForm] = None

    # -- rewriting -----------------------------------------------------

    def rewrite(self, word: Sequence[int], start: int = 0) -> SignedWord:
        """Signed Schreier-generator word for an ambient (signed) word.

        Scanning from coset ``start`` computes the rewrite of the
        conjugate u r u^-1 for u the representative of ``start``: the
        representative's own letters only cross tree edges.
        """
        action = self.table.action
        index = self.pair_index
        c = start
        out: list[int] = []
        for letter in word:
            y = abs(letter)
            if letter > 0:
                k = index.get((c, y))
                if k is not None:
                    out.append(k + 1)
                c = action[c][y - 1]
            else:
                c = action[c][y - 1]  # involution: s_y^-1 acts like s_y
                k = index.get((c, y))
                if k is not None:
                    out.append(-(k + 1))
        if c != start:
            raise ValueError("word does not normalize the coset: not in kernel "
                             "(or conjugate thereof)")
        return tuple(out)

    def schreier_word(self, k: int) -> Word:
        """Ambient word (positive letters) for Schreier generator k+1."""
        c, y = self.pairs[k]
        u = self.table.transversal[c]
        ubar = self.table.transversal[self.table.action[c][y - 1]]
        return u + (y,) + tuple(reversed(ubar))

    # -- abelianized kernel ---------------------------------------------

    def exponent_vector(self, word: Sequence[int]) -> dict[int, int]:
        """Schreier-generator exponent sums of a kernel word, as
        ``{k: exponent of generator k+1}`` with zero sums left out."""
        return _exponent_row(self.rewrite(word))

    @property
    def smith(self) -> SmithForm:
        if self._smith is None:
            self._smith = smith_normal_form(
                _relator_rows(self.presentation), self.num_schreier,
                want_transform=True)
        return self._smith

    @property
    def rank(self) -> int:
        return len(self.smith.free_columns)

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.smith.torsion

    def free_coordinates(self, word: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a kernel word in the free part of the
        abelianized kernel (the basis the Smith column transform picks)."""
        v = self.exponent_vector(word).items()
        sm = self.smith
        return tuple(sum(x * sm.v[t][j] for t, x in v)
                     for j in sm.free_columns)

    def conjugation_matrix(self, word: Sequence[int],
                           allow_torsion: bool = False) -> Matrix:
        """Matrix of x -> w x w^-1 on the free abelianized kernel.

        Columns are the images of the free basis vectors, so the map is
        a homomorphism in ambient words: M(uv) = M(u) M(v).  With
        torsion present the free part is still well defined, but the
        caller must opt in; by default torsion raises.
        """
        sm = self.smith
        if sm.torsion and not allow_torsion:
            raise LatticeTorsionError(sm.torsion)
        word = tuple(word)
        word_inv = invert_signed(word)
        # basis vector i is row i of V^-1 in Schreier generators, so its
        # image is the same combination of the images of the generators
        cols = []
        for i in sm.free_columns:
            col = [0] * len(sm.free_columns)
            for t, x in enumerate(sm.v_inv[i]):
                if x:
                    image = self.free_coordinates(
                        word + self.schreier_word(t) + word_inv)
                    col = [c + x * y for c, y in zip(col, image)]
            cols.append(col)
        return Matrix(tuple(zip(*cols)))


def _exponent_row(word: Sequence[int]) -> dict[int, int]:
    """Exponent sum of each generator in a signed word, as ``{k: sum}``
    for generator k+1, zero sums left out."""
    v: dict[int, int] = {}
    for letter in word:
        k = abs(letter) - 1
        x = v.get(k, 0) + (1 if letter > 0 else -1)
        if x:
            v[k] = x
        else:
            del v[k]
    return v


def _relator_rows(pres: Presentation) -> list:
    """The relator exponent matrix, one row of ``(column, exponent)``
    pairs per relator, as ``smith_normal_form`` reads it."""
    return [_exponent_row(rel).items() for rel in pres.relators]


# ---------------------------------------------------------------------------
# Tietze simplification


def tietze_simplify(pres: Presentation) -> Presentation:
    """Eliminate generators that occur exactly once in some relator.

    Each round picks the shortest relator containing a generator exactly
    once (the earliest on ties, and its first such generator), solves
    for that generator and substitutes through; relators are kept freely
    and cyclically reduced, empty ones dropped.  An index from each
    generator to the relators that contain it limits the substitution
    to those relators, and a heap keyed by (length, position) finds the
    next relator.  Terminates because each elimination removes a
    generator.  This is deliberately modest; it suffices to expose
    freeness for the kernels this package computes, and it preserves
    abelian invariants exactly.
    """
    relators: dict[int, SignedWord] = {}  # by position, gaps for the dropped
    holders = {g: set() for g in range(1, pres.generators + 1)}
    heap: list = []  # (length, position, lone generator, relator)

    def put(ri, rel):
        relators[ri] = rel
        counts = Counter(abs(letter) for letter in rel)
        for g in counts:
            holders[g].add(ri)
        lone = next((g for g, cnt in counts.items() if cnt == 1), None)
        if lone is not None:
            heapq.heappush(heap, (len(rel), ri, lone, rel))

    def take(ri):
        rel = relators.pop(ri)
        for letter in rel:
            holders[abs(letter)].discard(ri)
        return rel

    for ri, rel in enumerate(pres.relators):
        rel = cyclically_reduce(rel)
        if rel:
            put(ri, rel)
    alive = list(range(1, pres.generators + 1))
    while heap:
        _, ri, g, rel = heapq.heappop(heap)
        if relators.get(ri) != rel:
            continue  # stale: the relator changed or went since the push
        take(ri)
        at = rel.index(g) if g in rel else rel.index(-g)
        spun = rel[at:] + rel[:at]
        # spun = g^e * w, so g = w^-1 when e = +1 and g = w when e = -1
        replacement = invert_signed(spun[1:]) if spun[0] == g else spun[1:]
        sub = {g: replacement, -g: invert_signed(replacement)}
        for other in sorted(holders[g]):
            reduced = cyclically_reduce([x for letter in take(other)
                                         for x in sub.get(letter, (letter,))])
            if reduced:
                put(other, reduced)
        alive.remove(g)
    renumber = {g: i + 1 for i, g in enumerate(alive)}
    final = tuple(tuple((1 if letter > 0 else -1) * renumber[abs(letter)]
                        for letter in relators[ri]) for ri in sorted(relators))
    return Presentation(len(alive), final)


# ---------------------------------------------------------------------------
# abelianization


@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank plus the torsion divisor chain d_1 | d_2 | ..."""

    rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        parts.extend(f"Z_{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def abelian_invariants(pres: Presentation) -> AbelianInvariants:
    rows = _relator_rows(pres)
    if not rows:
        return AbelianInvariants(pres.generators, ())
    sm = smith_normal_form(rows, pres.generators)
    return AbelianInvariants(pres.generators - len(sm.divisors), sm.torsion)
