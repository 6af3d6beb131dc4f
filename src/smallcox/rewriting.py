"""Kernel presentations on the cells of the coset graph, and abelianization.

Every subgroup handled here is the kernel of a finite quotient map
(``congruence.FiniteQuotientMap``, built by ``congruence.quotient_map``),
so cosets biject with image elements and no Todd-Coxeter style
enumeration is ever needed:

* ``coset_table`` lists the cosets as the orbit of the identity image
  (``congruence.orbit``), recording the shortlex-least coset
  representative word and the action of each generator (all generator
  images are involutions, so the action table is its own inverse); it
  is the one caller that asks ``orbit`` for its action table and words,
  which the same breadth-first pass fills in;
* ``KernelRewriter(qmap)`` builds the coset table itself
  (``rewriter.table``), so a quotient map is the one way in to a
  kernel, and names one generator per non-tree edge of the coset graph
  (``columns``): the square s_y^2 makes the two Schreier generators
  u y (rep of uy)^-1 of an edge inverse to each other, and those of a
  tree edge trivial.  One scan walks a word over the action table and
  reads the signed column of each edge it crosses.  Ambient words are
  positive, as generators are involutions, and the words that callers
  pass in are checked by ``CoxeterSystem.check_word``; only kernel
  letters are signed;
* ``KernelRewriter.presentation`` presents the kernel on those
  generators with one relator per cell of the coset graph: x^2 for
  each fixed point c.y = c, and one scanned word per finite bond and
  orbit of that bond's dihedral group on the cosets.  It is a Tietze
  transform of the Reidemeister-Schreier presentation, whose other
  relators are cyclic conjugates of these or of their inverses.  It is
  built on first read, and only ``subgroup`` and the
  ``pl4-free-rank-5`` claim read it, for its text or for
  ``tietze_simplify``;
* the abelianized kernel comes from the exponent sums of the same cell
  words (``KernelRewriter.cell_rows``): ``KernelRewriter.invariants``
  reads free rank and torsion off a bare Smith form of these rows;
* ``KernelRewriter.conjugation_columns`` computes the action that an
  ambient word induces on the free part of the abelianized kernel, for
  the crystallographic checks, as sparse ``{row: value}`` columns, one
  per free basis vector, summed sparse so that no rank x rank array is
  ever made.  It reads the Smith transform of the cell rows sparse,
  with the sparse-column operations of ``matrices``: each column's free
  coordinates are the ``transpose`` of V's free columns, and free basis
  vector i is the combination ``free_rows[i]`` of columns, each column
  the class of the generator ``schreier_word(t)`` that names it, so the
  action is two ``mul_columns`` products after one scan per column of
  the lifts, and V^-1 is never formed.  Abelianized, the conjugate
  w g w^-1 is the kernel word g scanned from the coset of w, since the
  scans of w and of w^-1 cancel.  ``conjugation_matrix`` is the same
  action made dense (``dense_rows``); no command reads it, only the
  perfbench tracer and the tests.
  Torsion never raises here, and ``crystallo`` reports it;
* ``tietze_simplify`` repeatedly eliminates generators that occur
  exactly once in some relator, enough to expose freeness in the cases
  this package cares about; each generator lists the relators that may
  hold it (a superset that only grows), and a heap of (length,
  position) keys finds the next relator, its lone generator read then;
  of the relators left it keeps the first of each class up to rotation
  and inversion (``_cyclic_class``);
* ``abelian_invariants`` reads free rank and torsion of any
  presentation off the Smith normal form of its relator exponent
  matrix, whose rows go in sparse, as ``(generator, exponent)`` pairs
  with zero sums left out, one per distinct multiset of relator letters
  (``_relator_rows``).

``quotient_map`` is importable from here as well: ``cli`` and ``verify``
build their maps as ``rewriting.quotient_map``, and the perfbench
tracer times that binding as the quotient-map layer.

Presentation text format: first line ``gens g``, then one relator per
line as signed generator indices (``1 2 -1 -2``).
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

# quotient_map is re-exported (see the module docstring)
from .congruence import (DEFAULT_CAP, FiniteQuotientMap, RelationCheckError,
                         orbit, quotient_map)
from .coxeter import Word, relators
from .matrices import (Matrix, SmithForm, dense_rows, mul_columns,
                       smith_normal_form, transpose)

SignedWord = tuple[int, ...]


class Presentation:
    """Generators 1..generators and relators as signed words in them;
    two presentations are equal when both parts are."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: int, relators: tuple[SignedWord, ...]):
        for rel in relators:
            for letter in rel:
                if letter == 0 or abs(letter) > generators:
                    raise ValueError(f"relator letter {letter} outside range")
        self.generators = generators
        self.relators = relators

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generators == other.generators
                and self.relators == other.relators)

    def __repr__(self) -> str:
        return (f"Presentation(generators={self.generators!r}, "
                f"relators={self.relators!r})")


def format_presentation(pres: Presentation) -> str:
    lines = [f"gens {pres.generators}"]
    lines.extend(" ".join(str(x) for x in rel) for rel in pres.relators)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# coset tables


class CosetTable(NamedTuple):
    """Cosets of a kernel, one per image element.

    ``transversal[c]`` is the shortlex-least word whose image lands in
    coset c (coset 0 is the kernel itself, with the empty word), and
    ``action[c][y-1]`` is the coset of (representative of c) * s_y.
    Generator images are involutions, so each action column is a
    self-inverse permutation of the cosets.  ``count``, the number of
    cosets, shadows ``tuple.count``.
    """

    transversal: tuple[Word, ...]
    action: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.transversal)


def coset_table(qmap: FiniteQuotientMap, cap: int = DEFAULT_CAP) -> CosetTable:
    _, action, words = orbit(qmap.identity_image, qmap.step,
                             qmap.system.exponents, cap, with_action=True)
    # a column of the action is an involution when, read at its own
    # entries, it gives back 0..N-1
    cosets = list(range(len(action)))
    for col in zip(*action):
        if list(map(col.__getitem__, col)) != cosets:
            raise RelationCheckError("generator action is not an involution")
    return CosetTable(tuple(words), tuple(action))


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
# kernels on the cells of the coset graph


class KernelRewriter:
    """The kernel of a finite quotient map, on the cells of its coset graph.

    Built from the map alone: ``table`` is its coset table (at most
    ``cap`` cosets), ``system`` is ``qmap.system`` and ``ambient`` is
    ``coxeter.relators(qmap.system)``.
    The Schreier generator of a pair (coset c, generator y) is the
    kernel element u_c s_y (u_{c.y})^-1, trivial on a tree edge, where
    u_c s_y is itself the chosen representative: that is when t = c.y
    is not coset 0 and u_t ends in y, since u_t extends its parent
    t.y = c by y (``coset_table`` checks the involutions).  A kernel of
    index N under g ambient generators has ``num_schreier`` = N*g - (N-1)
    of them.

    The square s_y^2 rewritten from c says k(c,y) = k(c.y,y)^-1, so the
    two generators of an edge {c, c.y} are one up to sign, and both
    vanish on a tree edge.  ``columns[j]`` is the pair (c, y) that names
    the j-th non-tree edge, at its end c <= c.y, in (coset, letter)
    order; a fixed point c.y = c is an edge whose generator squares to
    1.  ``_fold[c][y-1]`` is the signed column +-(j+1) that (c, y)
    crosses: + at the end that names column j, - at the other (a fixed
    point has only the one end), 0 on a tree edge.  ``_scan`` walks a
    word letter by letter, reading ``_fold``; ambient words are
    positive, and ``free_coordinates`` and ``conjugation_columns`` check
    theirs with ``system.check_word``.

    ``presentation`` presents the kernel on one generator per column,
    with the words of ``_cell_words``: x_j^2 for each fixed-point
    column, then one word per finite bond and orbit of its dihedral
    group on the cosets.  The rewrites of that bond's relator from the
    orbit's other cosets are cyclic conjugates of that word or of its
    inverse, so this is a Tietze transform of the Reidemeister-Schreier
    presentation, one relator per (coset, ambient relator) pair: the
    2-skeleton of the Davis complex is simply connected, and these are
    its cells modulo the kernel.  It is built on first read; only
    ``subgroup`` and the ``pl4-free-rank-5`` claim read it, for its
    text or for ``tietze_simplify``.

    ``cell_rows`` are the exponent sums of the same words.
    ``invariants`` reads rank and torsion off a bare Smith form of these
    rows; ``smith`` is the one with the transform, which ``rank``,
    ``torsion``, ``free_coordinates`` and ``conjugation_columns`` read.
    None of them builds ``presentation``, and it builds none of them.
    A conjugate w g w^-1 is abelianized as the kernel word g scanned
    from the coset of w.
    """

    def __init__(self, qmap: FiniteQuotientMap, cap: int = DEFAULT_CAP):
        self.table = table = coset_table(qmap, cap)
        self.system = qmap.system
        self.ambient = relators(qmap.system)
        n, words, action = table.count, table.transversal, table.action
        self.num_schreier = n * qmap.system.rank - (n - 1)
        # a pair names its edge from the end c <= t; with c < t it is a
        # tree edge when u_t ends in y, as u_t then extends u_c by y
        self.columns = tuple((c, y) for c, row in enumerate(action)
                             for y, t in enumerate(row, 1)
                             if c == t or (c < t and words[t][-1] != y))
        self._fold = fold = [[0] * len(row) for row in action]
        for j, (c, y) in enumerate(self.columns, 1):
            fold[c][y - 1] = j
            t = action[c][y - 1]
            if t != c:
                fold[t][y - 1] = -j

    def _scan(self, word: Sequence[int], start: int = 0,
              seen: Optional[bytearray] = None,
              closed: bool = True) -> tuple[list[int], int]:
        """Walk the positive ``word`` from coset ``start``, reading
        ``_fold`` at the pair each letter crosses; return the nonzero
        readings and the end coset (``start`` when ``closed``).  Each
        coset the walk passes is marked in ``seen`` when given."""
        action, fold = self.table.action, self._fold
        c = start
        out: list[int] = []
        for letter in word:
            if seen is not None:
                seen[c] = 1
            k = fold[c][letter - 1]
            c = action[c][letter - 1]
            if k:
                out.append(k)
        if closed and c != start:
            raise ValueError("word does not normalize the coset: not in kernel "
                             "(or conjugate thereof)")
        return out, c

    def schreier_word(self, j: int) -> Word:
        """Ambient word (positive letters) for the generator of column j."""
        c, y = self.columns[j]
        u = self.table.transversal[c]
        ubar = self.table.transversal[self.table.action[c][y - 1]]
        return u + (y,) + tuple(reversed(ubar))

    def _cell_words(self) -> Iterator[list[int]]:
        """The relator of each cell, as signed columns, made one at a time.

        First x_j^2 for each fixed-point column j.  Then, for each finite
        bond i < j and each orbit of <s_i, s_j> on the cosets,
        (s_i s_j)^m_ij scanned from the orbit's first coset.  That walk
        visits the whole orbit (a cycle, or a path bent back at fixed
        points), so marking its cosets finds the orbits.
        """
        action, n = self.table.action, self.table.count
        for j, (c, y) in enumerate(self.columns, 1):
            if action[c][y - 1] == c:
                yield [j, j]
        for rel in self.ambient:
            if rel[0] == rel[1]:
                continue  # a square: folded into the columns
            seen = bytearray(n)
            for c in range(n):
                if not seen[c]:
                    yield self._scan(rel, c, seen)[0]

    @cached_property
    def presentation(self) -> Presentation:
        """The cell words freely reduced, empty ones dropped, over one
        generator per column."""
        words = map(free_reduce_signed, self._cell_words())
        return Presentation(len(self.columns), tuple(w for w in words if w))

    # -- abelianized kernel ----------------------------------------------

    def _abelian_row(self, word: Sequence[int],
                     start: int = 0) -> dict[int, int]:
        """The rewrite of ``word`` from coset ``start`` in the
        abelianized kernel, as a sparse ``{column: exponent}`` row: the
        exponent sums of its scan."""
        return _exponent_row(self._scan(word, start)[0])

    def cell_rows(self) -> Iterator[dict[int, int]]:
        """The exponent sums of the cell words over ``columns``, as
        ``{column: exponent}``, made one at a time; empty rows are left
        out.  Their row lattice is that of the Reidemeister-Schreier
        relators, so rank and torsion are the kernel's."""
        return filter(None, map(_exponent_row, self._cell_words()))

    def _cell_smith(self, want_transform: bool) -> SmithForm:
        # the cell rows go in as a list, though the Smith form reads
        # them once: the span counters of perfbench/spans.py read them
        # again after the call
        return smith_normal_form([row.items() for row in self.cell_rows()],
                                 len(self.columns),
                                 want_transform=want_transform)

    @cached_property
    def smith(self) -> SmithForm:
        """Smith form of the cell rows, with its column transform."""
        return self._cell_smith(True)

    @cached_property
    def invariants(self) -> AbelianInvariants:
        """Free rank and torsion of the abelianized kernel, off a bare
        Smith form of the cell rows (no transform)."""
        sm = self._cell_smith(False)
        return AbelianInvariants(sm.ncols - len(sm.divisors), sm.torsion)

    @property
    def rank(self) -> int:
        """Rank of the free part, in the basis ``smith`` picks."""
        return len(self.smith.free_rows)

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.smith.torsion

    @cached_property
    def _coordinates(self) -> list[dict[int, int]]:
        """Each column's free coordinates as a sparse ``{free index:
        value}`` dict: the rows of V's free columns."""
        sm = self.smith
        return transpose(sm.columns[len(sm.divisors):], len(self.columns))

    def free_coordinates(self, word: Sequence[int],
                         start: int = 0) -> dict[int, int]:
        """Coordinates of a kernel word rewritten from coset ``start``
        in the free part of the abelianized kernel (the Smith basis), as
        one sparse ``{free index: value}`` column, zeros left out."""
        row = self._abelian_row(self.system.check_word(word), start)
        return mul_columns(self._coordinates, [row])[0]

    def conjugation_columns(self, word: Sequence[int]) -> list[dict[int, int]]:
        """Columns of x -> w x w^-1 on the free abelianized kernel, sparse.

        Column i is the image of free basis vector i, as ``{row: value}``
        with zero entries left out, so the map is a homomorphism in
        ambient words: M(uv) = M(u) M(v).  The free part is well defined
        with or without torsion.
        """
        # abelianized, the scans of w from coset 0 and of w^-1 back from
        # the coset d of w cross the same edges with opposite signs, so
        # a conjugate w g w^-1 is the kernel word g scanned from d
        d = self._scan(self.system.check_word(word), closed=False)[1]
        # basis vector i is the combination free_rows[i] of columns, and
        # column t is the class of the generator schreier_word(t), so its
        # image is that combination of the images of their conjugates
        lifts = self.smith.free_rows
        images = {t: self._abelian_row(self.schreier_word(t), d)
                  for lift in lifts for t in lift}
        return mul_columns(self._coordinates, mul_columns(images, lifts))

    def conjugation_matrix(self, word: Sequence[int]) -> Matrix:
        """``conjugation_columns(word)`` as a dense matrix; no command
        calls it, only the perfbench tracer and the tests read it."""
        cols = self.conjugation_columns(word)
        return Matrix(dense_rows(cols, len(cols)))


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
    relator gives.  A kernel's own invariants come from
    ``KernelRewriter.cell_rows``, so this is the route for any other
    presentation, a Tietze-simplified one for instance.
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
    and cyclically reduced, empty ones dropped.  ``holders[g]`` lists
    the relators that may hold g, a superset that only grows: a
    rewritten relator joins the lists of the replacement's generators,
    and an elimination skips the relators that went or lost g.  The
    heap holds (length, position) keys, pushed on every change; a pop is
    live while the relator there keeps that length, and only then is
    its lone generator found.  Each changed relator takes one pass of
    substitution and free reduction, then a cyclic strip.  Terminates
    because each elimination removes a generator.  Last, of relators
    equal up to rotation and inversion only the first stays.  This is
    deliberately modest; it suffices to expose freeness for the kernels
    this package computes, and it preserves abelian invariants exactly.
    """
    relators: dict[int, SignedWord] = {}  # by position, gaps for the dropped
    # generator -> the positions of the relators that may contain it;
    # its keys are the generators not yet eliminated
    holders = {g: [] for g in range(1, pres.generators + 1)}
    for ri, rel in enumerate(pres.relators):
        rel = cyclically_reduce(rel)
        if rel:
            relators[ri] = rel
            for g in set(map(abs, rel)):
                holders[g].append(ri)
    heap = [(len(rel), ri) for ri, rel in relators.items()]
    heapq.heapify(heap)
    while heap:
        length, ri = heapq.heappop(heap)
        rel = relators.get(ri)
        if rel is None or len(rel) != length:
            continue  # stale: the relator changed or went since the push
        counts = Counter(map(abs, rel))
        g = next((h for h in map(abs, rel) if counts[h] == 1), 0)
        if not g:
            continue
        del relators[ri]
        at = rel.index(g) if g in rel else rel.index(-g)
        spun = rel[at:] + rel[:at]
        # spun = g^e * w, so g = w^-1 when e = +1 and g = w when e = -1
        replacement = invert_signed(spun[1:]) if spun[0] == g else spun[1:]
        inverse = invert_signed(replacement)
        gained = set(map(abs, replacement))
        for other in holders.pop(g):
            word = relators.get(other)
            if word is None or (g not in word and -g not in word):
                continue
            # out is freely reduced as it grows; the reduction step is
            # written out for a substituted piece and again for a plain
            # letter, since this loop is the simplifier's hot path
            out: list[int] = []
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
            if out:
                relators[other] = tuple(out[i:j + 1])
                heapq.heappush(heap, (j + 1 - i, other))
                for h in gained:
                    holders[h].append(other)
            else:
                del relators[other]
    renumber = {g: i for i, g in enumerate(holders, 1)}
    final = (tuple((1 if letter > 0 else -1) * renumber[abs(letter)]
                   for letter in relators[ri]) for ri in sorted(relators))
    kept: dict[SignedWord, SignedWord] = {}
    for rel in final:  # the first relator of each class
        kept.setdefault(_cyclic_class(rel), rel)
    return Presentation(len(renumber), tuple(kept.values()))


def _cyclic_class(word: SignedWord) -> SignedWord:
    """The least rotation of a cyclically reduced word or of its
    inverse: equal exactly for relators that say the same up to
    conjugation and inversion.  Only rotations that start at the least
    letter are formed."""
    return min(w[i:] + w[:i] for w in (word, invert_signed(word))
               for least in (min(w),) for i, x in enumerate(w) if x == least)


# ---------------------------------------------------------------------------
# abelianization


class AbelianInvariants(NamedTuple):
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
