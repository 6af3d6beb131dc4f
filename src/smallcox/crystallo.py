"""Holonomy representations of crystallographic quotients.

A group extension 1 -> Z^d -> G -> H -> 1 with H finite makes G
crystallographic of dimension d exactly when the conjugation action
Theta: H -> Aut(Z^d) is faithful.  The quotients certified here arise
from a twin or triplet group G0 and a finite quotient with kernel K:
the lattice is the abelianization K/K', H = G0/K, and G = G0/K'.

Two independent routes to Theta exist for the second-commutator
quotient of the twin group (lattice of rank 2n-5):

* ``theta_generator_matrix`` writes the action of each mod-2 generator
  class down in closed form on the standard lattice basis
  b0(1), b0(2), b1(2), ..., b0(n-2), b1(n-2), where b0(j) is the class
  of s_{j+1} s_j s_{j+1} s_j and b1(j) its conjugate by s_{j-1};
  ``theta_faithfulness`` runs these over the subsets of classes, one
  coset each of the mod-2 abelianization of the twin group, with no
  coset table built;
* ``holonomy_via_conjugation(qmap)`` computes the action of each
  ambient generator on the kernel of the quotient map through its
  coset graph (``KernelRewriter(qmap)``; the system is ``qmap.system``),
  with no closed form anywhere.  The lattice is read off the cells of
  the coset graph (one column per non-tree edge, one row per bond and
  dihedral orbit of cosets), and one Smith form with its transform
  gives both the basis and the rank and torsion; the kernel's
  presentation is never built, and neither is a dense rank x rank
  matrix: each generator's action comes as sparse columns
  (``KernelRewriter.conjugation_columns``).

Both routes hand their generator matrices to one walk, ``_holonomy``,
as lists of sparse ``{row: value}`` columns; ``theta_faithfulness``
checks its closed forms on those same columns, with sparse column
products (``matrices.mul_columns``).  The walk follows a tree of coset
words, each a parent's word plus one letter y, and carries one sparse
basis row at a time, e_i M(c) = (e_i M(parent)) M(s_y) (the action is a
homomorphism, M(uv) = M(u) M(v)), as a dict of its few nonzeros.  The
first row is carried through every coset, and each later one only
through the cosets that every row so far has left fixed, and their
ancestors; a coset is in the kernel exactly when it fixes every row, so
the witnesses are exactly the cosets whose full matrix is the identity,
and no matrix product is formed.  The conjugation route reads its tree
off the coset table it rewrites over; the closed-form route walks the
subsets of classes directly (``_subset_tree``), since their shortlex
order is that table's transversal and tree.

``theta_cross_check`` verifies that the two routes agree after the
change of basis that expresses the b-classes in Schreier coordinates,
on the same sparse columns.
Faithfulness is always certified by enumerating the whole finite
holonomy group, never from a single witness element.

The lattice is the free part of the abelianized kernel, and any torsion
is always reported on the ``HolonomyReport``, never raised; only
``theta_cross_check`` raises ``LatticeTorsionError``.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, NamedTuple, Optional, Sequence

from .congruence import FiniteQuotientMap, quotient_map
from .coxeter import Word, family_of, twin
from .matrices import dense_rows, det_rows, mul_columns, transpose
from .rewriting import CosetTable, KernelRewriter


class BasisSpanError(ValueError):
    """The b-class dictionary does not span the lattice."""


class LatticeTorsionError(ValueError):
    """The kernel abelianization of the cross-check has torsion."""

    def __init__(self, torsion: tuple[int, ...]):
        super().__init__(f"kernel abelianization has torsion {torsion}")
        self.torsion = torsion


class HolonomyReport(NamedTuple):
    """Faithfulness certificate for one crystallographic quotient."""

    quotient: str
    dimension: int
    holonomy_order: int
    faithful: bool
    kernel_witnesses: tuple[Word, ...]
    lattice_torsion: tuple[int, ...] = ()


def _basis(n: int) -> list[tuple[int, int]]:
    """The (j, p) of each basis class b_p(j), in basis order."""
    return [(1, 0)] + [(j, p) for j in range(2, n - 1) for p in (0, 1)]


def theta_generator_matrix(n: int, k: int) -> list[dict[int, int]]:
    """Action of the k-th generator class on the rank-(2n-5) lattice,
    as sparse ``{row: value}`` columns, one per basis class.

    On the basis classes the action is: fix b(j) for j outside
    {k-2, k-1, k, k+1}; negate b(j) for j = k-1 or k; swap b0(j) and
    b1(j) for j = k+1; and for j = k-2 add b0(j+1) - b1(j+1) to b(j),
    so a column has one entry, or three for j = k-2.  The result is an
    involution with entries in {-1, 0, 1}.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} outside 1..{n - 1}")
    basis = _basis(n)
    index = {b: i for i, b in enumerate(basis)}
    cols = []
    for j, p in basis:
        if j in (k - 1, k):
            cols.append({index[j, p]: -1})
        elif j == k + 1:
            cols.append({index[j, 1 - p]: 1})
        elif j == k - 2:
            cols.append({index[j, p]: 1, index[j + 1, 0]: 1,
                         index[j + 1, 1]: -1})
        else:
            cols.append({index[j, p]: 1})
    return cols


def theta_faithfulness(n: int) -> HolonomyReport:
    """Kernel of the closed-form action of Z_2^(n-1), by full enumeration.

    Verifies first that the generator matrices are commuting involutions
    (so the formulas really define an action of the elementary abelian
    group), with products of their sparse columns, then walks the
    2^(n-1) cosets of the mod-2 abelianization of the twin group (no
    odd bonds, so one coset per subset) with those same columns, over
    ``_subset_tree`` and with no quotient map or coset table, and
    reports every subset acting trivially.
    """
    if not 3 <= n <= 12:
        raise ValueError(f"need 3 <= n <= 12, got {n}")
    gens = [theta_generator_matrix(n, k) for k in range(1, n)]
    ident = [{j: 1} for j in range(len(gens[0]))]
    for i, a in enumerate(gens):
        if mul_columns(a, a) != ident:
            raise ArithmeticError(f"generator class {i + 1} is not an involution")
        for b in gens[i + 1:]:
            if mul_columns(a, b) != mul_columns(b, a):
                raise ArithmeticError("generator classes fail to commute")
    return _holonomy(f"T{n}/T{n}''", *_subset_tree(n), gens, len(ident))


def _subset_tree(n: int) -> tuple[list[Word], list[int]]:
    """The cosets of the mod-2 abelianization of the twin group T_n, as
    the words of the subsets of the n-1 generator classes and the index
    of each one's parent, in shortlex order (by size, then
    lexicographically).

    A subset's word lists its classes in increasing order, and its
    parent drops the largest class, so the parents never decrease; the
    empty subset is its own parent.  This is the transversal and tree
    of ``coset_table(quotient_map(twin(n), "mod2_abelian"))``, built
    without the quotient map's orbit.
    """
    words: list[Word] = [()]
    parents = [0]
    for p, word in enumerate(words):  # read as it grows: breadth first
        for y in range(word[-1] + 1 if word else 1, n):
            words.append(word + (y,))
            parents.append(p)
    return words, parents


def _table_tree(table: CosetTable) -> tuple[tuple[Word, ...], list[int]]:
    """The transversal of ``table`` and the index of each coset's tree
    parent: coset c's word is its parent's word plus one letter y, and
    generator actions are involutions, so the parent is c.y."""
    words, action = table.transversal, table.action
    return words, [0] + [action[c][words[c][-1] - 1]
                         for c in range(1, table.count)]


def _quotient_label(qmap: FiniteQuotientMap, family: Optional[str]) -> str:
    """The report's name for the quotient; ``family`` names the system's
    family, or None to read it off the system with ``family_of``."""
    system = qmap.system
    family = family or family_of(system)
    n = system.rank + 1
    stem = {"twin": f"T{n}", "triplet": f"L{n}", "symmetric": f"S{n}"}.get(
        family, f"W(rank {system.rank})")
    if qmap.kind == "symmetric":
        return f"{stem}/P{stem}'"
    if qmap.kind == "mod2_abelian":
        return f"{stem}/{stem}''"
    if qmap.kind == "modular":
        return f"{stem}/{stem}[{qmap.modulus}]'"
    return f"{stem}/{stem}'"


def _holonomy(label: str, words: Sequence[Word], parents: Sequence[int],
              gens: Iterable, dim: int,
              torsion: tuple[int, ...] = ()) -> HolonomyReport:
    """The action of every coset, from the sparse columns of the
    generator matrices ``gens``, as a faithfulness report named
    ``label``.

    ``words[c]`` is coset c's word and ``parents[c]`` the index of the
    coset whose word is ``words[c]`` without its last letter; coset 0
    has the empty word, and a parent comes before its children.
    ``gens`` holds one list of ``{row: value}`` columns per generator,
    and each is also listed by rows (``matrices.transpose``), which is
    what a row vector times the matrix sums over.  The walk goes one basis row e_i at a time and
    keeps the candidates, the cosets that every row so far has left
    fixed, starting from every coset but 0: each stage computes the
    sparse row e_i M(c) = (e_i M(parent)) M(s_y), y the last letter of
    c's word, for the candidates and their ancestors in increasing
    order, and keeps the candidates whose row is still exactly e_i.
    M(c) is the identity exactly when it fixes every e_i, so the cosets
    left when the rows run out are the kernel, and the walk stops as
    soon as none is left; no matrix product is formed.  The first stage
    walks every coset, so the whole group is enumerated.  Kernel
    witnesses come in the order of ``words``.
    """
    rows = [transpose(cols, dim) for cols in gens]
    count = len(words)
    letters = [0] + [word[-1] - 1 for word in words[1:]]
    candidates = walk = range(1, count)
    # last row first: the walks of PT_5 and theta(10), the two holonomy
    # jobs of the benchmark, took 0.14 and 0.45-0.48 ms this way against
    # 0.22 and 0.77-0.83 ms first row first (best of 5, three runs,
    # Python 3.11.7 on a shared 2-vCPU Xeon VM)
    for i in reversed(range(dim)):
        if not candidates:
            break
        unit = {i: 1}
        images: list = [None] * count
        images[0] = unit
        for c in walk:
            gen = rows[letters[c]]
            row = images[parents[c]]
            if len(row) == 1:
                # a times row k of M(s_y), shared when a is 1: no image
                # is changed once made
                [(k, a)] = row.items()
                images[c] = gen[k] if a == 1 else {
                    j: a * v for j, v in gen[k].items()}
                continue
            image: dict[int, int] = {}
            for k, a in row.items():
                for j, v in gen[k].items():
                    image[j] = image.get(j, 0) + a * v
            images[c] = {j: v for j, v in image.items() if v}
        candidates = [c for c in candidates if images[c] == unit]
        marked = bytearray(count)  # the candidates and their ancestors
        for c in candidates:
            while not marked[c]:
                marked[c] = 1
                c = parents[c]
        walk = compress(range(1, count), marked[1:])
    witnesses = [words[c] for c in candidates]
    return HolonomyReport(
        quotient=label,
        dimension=dim,
        holonomy_order=count,
        faithful=not witnesses,
        kernel_witnesses=tuple(witnesses),
        lattice_torsion=torsion,
    )


def holonomy_via_conjugation(qmap: FiniteQuotientMap,
                             family: Optional[str] = None) -> HolonomyReport:
    """Conjugation action of a finite quotient on its kernel's
    abelianization, over every coset.

    Only the generators' sparse columns come from Schreier rewriting
    (``KernelRewriter.conjugation_columns``), one generator at a time;
    the walk over the cosets is ``_holonomy``, along the tree of the
    rewriter's coset table.  Torsion of the abelianization goes on the
    report as ``lattice_torsion``.  ``family`` names the family the
    system was built as, for the report's label; without it the label
    follows ``coxeter.family_of``, which cannot tell the rank-1 systems
    apart and names them all twin.
    """
    rewriter = KernelRewriter(qmap)
    gens = (rewriter.conjugation_columns((y,))
            for y in range(1, qmap.system.rank + 1))
    return _holonomy(_quotient_label(qmap, family),
                     *_table_tree(rewriter.table), gens, rewriter.rank,
                     rewriter.torsion)


def beta_word(n: int, j: int, p: int) -> Word:
    """The commutator-subgroup generator b_p(j) as an ambient word:
    b0(j) = s_{j+1} s_j s_{j+1} s_j, and b_p(j) conjugates it by
    s_{j-p} ... s_{j-1}."""
    if not 1 <= j <= n - 2:
        raise ValueError(f"j = {j} outside 1..{n - 2}")
    if not 0 <= p < j:
        raise ValueError(f"p = {p} outside 0..{j - 1}")
    core = (j + 1, j, j + 1, j)
    wrap = tuple(range(j - p, j))  # s_{j-p} ... s_{j-1}
    return wrap + core + tuple(reversed(wrap))


def theta_cross_check(n: int) -> bool:
    """Do the closed-form matrices match the conjugation computation?

    Runs the Schreier route over the mod-2 abelianization of the twin
    group and expresses the b-class dictionary in the Schreier basis as
    the sparse columns of B.  B must be unimodular (determinant +-1),
    else BasisSpanError; then each generator's conjugation columns C
    match Theta_k in the b-basis exactly when C B = B Theta_k.  A kernel
    abelianization with torsion raises LatticeTorsionError.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    rewriter = KernelRewriter(quotient_map(twin(n), "mod2_abelian"))
    if rewriter.torsion:
        raise LatticeTorsionError(rewriter.torsion)
    basis = _basis(n)
    dim = len(basis)
    if rewriter.rank != dim:
        raise BasisSpanError(
            f"kernel abelianization has rank {rewriter.rank}, expected {dim}")
    b_cols = [rewriter.free_coordinates(beta_word(n, j, p)) for j, p in basis]
    if det_rows(dense_rows(b_cols, dim)) not in (1, -1):
        raise BasisSpanError("b-class dictionary is not a lattice basis")
    return all(mul_columns(rewriter.conjugation_columns((k,)), b_cols)
               == mul_columns(b_cols, theta_generator_matrix(n, k))
               for k in range(1, n))
