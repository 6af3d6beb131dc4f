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
  rewritten relator per (coset, ``coxeter.relators`` relator) pair; the
  rewriter builds the coset table itself (``rewriter.table``), so a
  quotient map is the one way in to a kernel, and a rewrite reads that
  action table and a Schreier label table laid out like it;
* ``tietze_simplify`` repeatedly eliminates generators that occur
  exactly once in some relator, enough to expose freeness in the cases
  this package cares about; an index from generators to relators keeps
  each elimination to the relators it changes, and each of those takes
  one pass that substitutes and free-reduces together;
* ``abelian_invariants`` reads free rank and torsion off the Smith
  normal form of the relator exponent matrix, whose rows go in sparse,
  as ``(generator, exponent)`` pairs with zero sums left out, one per
  distinct multiset of relator letters (``_relator_rows``);
* ``KernelRewriter.conjugation_matrix`` computes the action that an
  ambient word induces on the free part of the abelianized kernel, for
  the crystallographic checks.  It reads the Smith transform sparse:
  each Schreier generator's free coordinates are listed once from V's
  free columns, and free basis vector i is the Schreier generator
  ``order[i]`` (the combination ``free_rows[i]`` in general), so a
  matrix costs one conjugate rewrite per free column and V^-1 is never
  formed.  Torsion never raises here, and ``crystallo`` reports it.

``quotient_map`` is importable from here as well: ``cli`` and ``verify``
build their maps as ``rewriting.quotient_map``, and the perfbench
tracer times that binding as the quotient-map layer.

Presentation text format: first line ``gens g``, then one relator per
line as signed generator indices (``1 2 -1 -2``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

# quotient_map is re-exported (see the module docstring)
from .congruence import (DEFAULT_CAP, FiniteQuotientMap, RelationCheckError,
                         orbit, quotient_map)
from .coxeter import CoxeterSystem, Word, relators
from .matrices import Matrix, SmithForm, smith_normal_form

SignedWord = tuple[int, ...]


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


def coxeter_presentation(system: CoxeterSystem) -> Presentation:
    """``coxeter.relators`` on rank-many generators."""
    return Presentation(system.rank, relators(system))


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
    ``coxeter.relators(qmap.system)``.  The Schreier generator for a
    pair (coset c, generator y) is the kernel element
    u_c s_y (u_{c.y})^-1; pairs where u_c s_y is itself the chosen
    representative (the breadth-first tree edges) are trivial: that is
    when t = c.y is not coset 0 and u_t ends in y, since u_t extends its
    parent t.y = c by y (``coset_table`` checks the involutions).
    ``pairs[k]`` is the pair of generator k+1 and ``label[c][y-1]`` is
    k+1, or 0 on a tree edge.  Rewriting scans a word letter by letter,
    emitting the label of each pair it crosses.

    ``presentation`` is the Reidemeister-Schreier presentation of the
    kernel: a kernel of index N under g ambient generators gets exactly
    N*g - (N-1) generators and one freely reduced relator per (coset,
    ambient relator) pair, empty rewrites dropped.
    """

    def __init__(self, qmap: FiniteQuotientMap, cap: int = DEFAULT_CAP):
        self.table = table = coset_table(qmap, cap)
        words = table.transversal
        self.pairs = [(c, y) for c, row in enumerate(table.action)
                      for y, t in enumerate(row, 1)
                      if not (t and words[t][-1] == y)]
        self.label = [[0] * len(row) for row in table.action]
        for k, (c, y) in enumerate(self.pairs, 1):
            self.label[c][y - 1] = k
        self.num_schreier = len(self.pairs)
        ambient = relators(qmap.system)
        rels = []
        for c in range(table.count):
            for rel in ambient:
                w = free_reduce_signed(self.rewrite(rel, start=c))
                if w:
                    rels.append(w)
        self.presentation = Presentation(self.num_schreier, tuple(rels))

    # -- rewriting -----------------------------------------------------

    def rewrite(self, word: Sequence[int], start: int = 0) -> SignedWord:
        """Signed Schreier-generator word for an ambient (signed) word.

        Scanning from coset ``start`` computes the rewrite of the
        conjugate u r u^-1 for u the representative of ``start``: the
        representative's own letters only cross tree edges.
        """
        action, label = self.table.action, self.label
        c = start
        out: list[int] = []
        for letter in word:
            if letter > 0:
                k = label[c][letter - 1]
                if k:
                    out.append(k)
                c = action[c][letter - 1]
            else:
                y = -letter - 1
                c = action[c][y]  # involution: s_y^-1 acts like s_y
                k = label[c][y]
                if k:
                    out.append(-k)
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

    @cached_property
    def smith(self) -> SmithForm:
        return smith_normal_form(_relator_rows(self.presentation),
                                 self.num_schreier, want_transform=True)

    @property
    def rank(self) -> int:
        return self.smith.ncols - len(self.smith.divisors)

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.smith.torsion

    @cached_property
    def _coordinates(self) -> list[list[tuple[int, int]]]:
        """Each Schreier generator's free coordinates as sparse
        ``(free index, value)`` pairs, read off V's free columns."""
        sm = self.smith
        coords: list[list[tuple[int, int]]] = [
            [] for _ in range(self.num_schreier)]
        for i, col in enumerate(sm.columns[len(sm.divisors):]):
            for t, x in col.items():
                coords[t].append((i, x))
        return coords

    def free_coordinates(self, word: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a kernel word in the free part of the
        abelianized kernel (the basis the Smith column transform picks)."""
        coords = self._coordinates
        out = [0] * self.rank
        for t, x in _exponent_row(self.rewrite(word)).items():
            for i, y in coords[t]:
                out[i] += x * y
        return tuple(out)

    def conjugation_matrix(self, word: Sequence[int]) -> Matrix:
        """Matrix of x -> w x w^-1 on the free abelianized kernel.

        Columns are the images of the free basis vectors, so the map is
        a homomorphism in ambient words: M(uv) = M(u) M(v).  The free
        part is well defined with or without torsion.
        """
        word = tuple(word)
        word_inv = invert_signed(word)
        # basis vector i is the combination free_rows[i] of Schreier
        # generators, so its image is that combination of the images of
        # their conjugates
        cols = []
        for lift in self.smith.free_rows:
            col = [0] * self.rank
            for t, x in lift.items():
                image = self.free_coordinates(
                    word + self.schreier_word(t) + word_inv)
                col = [c + x * y for c, y in zip(col, image)]
            cols.append(col)
        return Matrix.canonical(tuple(zip(*cols)))


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
    pairs per distinct multiset of relator letters, as
    ``smith_normal_form`` reads it.

    Relators with the same letters in any order have the same row, so
    the row lattice, and with it rank and torsion, is what every
    relator gives.  A ``KernelRewriter`` presentation rewrites the
    positive words of ``coxeter.relators``, so its rows are its letter
    multisets and each distinct row goes in once (none is the negative
    of another); the rewrites of one ambient relator along its cycle of
    cosets are rotations of each other, so PT_5's 840 relators give 420
    rows.
    """
    letters = dict.fromkeys(tuple(sorted(rel)) for rel in pres.relators)
    return [_exponent_row(word).items() for word in letters]


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
    next relator.  Each changed relator takes one pass: substitution
    and free reduction run in the same loop, the cyclic strip follows,
    and the index moves only by the generators the relator gained or
    lost.  Terminates because each elimination removes a generator.
    This is deliberately modest; it suffices to expose freeness for the
    kernels this package computes, and it preserves abelian invariants
    exactly.
    """
    relators: dict[int, SignedWord] = {}  # by position, gaps for the dropped
    # generator -> the positions of the relators that contain it; its
    # keys are the generators not yet eliminated
    holders = {g: set() for g in range(1, pres.generators + 1)}
    heap: list = []  # (length, position, lone generator, relator)

    def put(ri, rel) -> set[int]:
        """Store ``rel`` at ``ri``, push it when some generator occurs
        once in it (the one of the first such letter), and return its
        generators."""
        relators[ri] = rel
        once: dict[int, bool] = {}  # in the order of first occurrence
        for g in map(abs, rel):
            once[g] = g not in once
        for g, single in once.items():
            if single:
                heapq.heappush(heap, (len(rel), ri, g, rel))
                break
        return set(once)

    for ri, rel in enumerate(pres.relators):
        rel = cyclically_reduce(rel)
        if rel:
            for g in put(ri, rel):
                holders[g].add(ri)
    while heap:
        _, ri, g, rel = heapq.heappop(heap)
        if relators.get(ri) != rel:
            continue  # stale: the relator changed or went since the push
        del relators[ri]
        for h in set(map(abs, rel)):
            holders[h].discard(ri)
        at = rel.index(g) if g in rel else rel.index(-g)
        spun = rel[at:] + rel[:at]
        # spun = g^e * w, so g = w^-1 when e = +1 and g = w when e = -1
        replacement = invert_signed(spun[1:]) if spun[0] == g else spun[1:]
        inverse = invert_signed(replacement)
        for other in sorted(holders[g]):
            # out is freely reduced as it grows; the reduction step is
            # written out for a substituted piece and again for a plain
            # letter, since this loop is the simplifier's hot path
            out: list[int] = []
            word = relators.pop(other)
            for letter in word:
                if letter == g or letter == -g:
                    for x in replacement if letter == g else inverse:
                        if out and out[-1] == -x:
                            out.pop()
                        else:
                            out.append(x)
                elif out and out[-1] == -letter:
                    out.pop()
                else:
                    out.append(letter)
            i, j = 0, len(out) - 1
            while i < j and out[i] == -out[j]:
                i, j = i + 1, j - 1
            old = set(map(abs, word))
            new = put(other, tuple(out[i:j + 1])) if out else set()
            for h in old - new:
                holders[h].discard(other)
            for h in new - old:
                holders[h].add(other)
        del holders[g]
    renumber = {g: i for i, g in enumerate(holders, 1)}
    final = tuple(tuple((1 if letter > 0 else -1) * renumber[abs(letter)]
                        for letter in relators[ri]) for ri in sorted(relators))
    return Presentation(len(renumber), final)


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
    sm = smith_normal_form(_relator_rows(pres), pres.generators)
    return AbelianInvariants(pres.generators - len(sm.divisors), sm.torsion)
