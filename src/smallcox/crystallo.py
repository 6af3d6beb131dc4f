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
* ``holonomy_via_conjugation(qmap)`` computes the action of each
  ambient generator on the kernel of the quotient map through Schreier
  rewriting (``KernelRewriter(qmap)``; the system is ``qmap.system``),
  with no closed form anywhere, and the action of every coset as a
  product of generator matrices along the breadth-first transversal
  tree (the action is a homomorphism, M(uv) = M(u) M(v)).

``theta_cross_check`` verifies that the two routes agree after the
change of basis that expresses the b-classes in Schreier coordinates.
Faithfulness is always certified by enumerating the whole finite
holonomy group, never from a single witness element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import DEFAULT_CAP, FiniteQuotientMap, quotient_map
from .coxeter import Word, family_of, twin
from .matrices import Matrix
from .rewriting import KernelRewriter, LatticeTorsionError


class BasisSpanError(ValueError):
    """The b-class dictionary does not span the lattice."""


@dataclass(frozen=True)
class HolonomyReport:
    """Faithfulness certificate for one crystallographic quotient."""

    quotient: str
    dimension: int
    holonomy_order: int
    faithful: bool
    kernel_witnesses: tuple[Word, ...]
    lattice_torsion: tuple[int, ...] = ()

    def to_record(self) -> dict:
        return {
            "quotient": self.quotient,
            "dimension": self.dimension,
            "holonomy_order": self.holonomy_order,
            "faithful": self.faithful,
            "kernel_witnesses": [list(w) for w in self.kernel_witnesses],
            "lattice_torsion": list(self.lattice_torsion),
        }


def _basis_size(n: int) -> int:
    return 2 * n - 5


def _b0_index(n: int, j: int) -> int:
    return 0 if j == 1 else 2 * j - 3


def _b1_index(n: int, j: int) -> int:
    if j < 2:
        raise ValueError("b1(j) needs j >= 2")
    return 2 * j - 2


def theta_generator_matrix(n: int, k: int) -> Matrix:
    """Action of the k-th generator class on the rank-(2n-5) lattice.

    On the basis classes the action is: fix b(j) for j outside
    {k-2, k-1, k, k+1}; negate b(j) for j = k-1 or k; swap b0(j) and
    b1(j) for j = k+1; and for j = k-2 add b0(j+1) - b1(j+1) to b(j).
    The result is an involution with entries in {-1, 0, 1}.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} outside 1..{n - 1}")
    dim = _basis_size(n)
    cols: list[list[int]] = []
    for j in range(1, n - 1):
        for p in (0, 1):
            if p == 1 and j == 1:
                continue
            col = [0] * dim
            own = _b0_index(n, j) if p == 0 else _b1_index(n, j)
            if j in (k - 1, k):
                col[own] = -1
            elif j == k + 1:
                col[_b1_index(n, j) if p == 0 else _b0_index(n, j)] = 1
            elif j == k - 2:
                col[own] = 1
                col[_b0_index(n, j + 1)] = 1
                col[_b1_index(n, j + 1)] = -1
            else:
                col[own] = 1
            cols.append(col)
    return Matrix(tuple(tuple(cols[j][i] for j in range(dim))
                        for i in range(dim)))


def theta_faithfulness(n: int) -> HolonomyReport:
    """Kernel of the closed-form action of Z_2^(n-1), by full enumeration.

    Verifies first that the generator matrices are commuting involutions
    (so the formulas really define an action of the elementary abelian
    group), then multiplies out all 2^(n-1) products and reports every
    subset acting trivially.
    """
    if not 3 <= n <= 12:
        raise ValueError(f"need 3 <= n <= 12, got {n}")
    dim = _basis_size(n)
    ident = Matrix.identity(dim)
    mats = [theta_generator_matrix(n, k) for k in range(1, n)]
    for i, a in enumerate(mats):
        if a * a != ident:
            raise ArithmeticError(f"generator class {i + 1} is not an involution")
        for b in mats[i + 1:]:
            if a * b != b * a:
                raise ArithmeticError("generator classes fail to commute")
    products = [ident]
    for mask in range(1, 2 ** (n - 1)):
        low = (mask & -mask).bit_length() - 1
        products.append(products[mask & (mask - 1)] * mats[low])
    witnesses = []
    for mask in range(1, 2 ** (n - 1)):
        if products[mask] == ident:
            word = tuple(k + 1 for k in range(n - 1) if mask >> k & 1)
            witnesses.append(word)
    return HolonomyReport(
        quotient=f"T{n}/T{n}''",
        dimension=dim,
        holonomy_order=2 ** (n - 1),
        faithful=not witnesses,
        kernel_witnesses=tuple(witnesses),
    )


def _quotient_label(qmap: FiniteQuotientMap) -> str:
    system = qmap.system
    family = family_of(system)
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


def holonomy_via_conjugation(qmap: FiniteQuotientMap, cap: int = DEFAULT_CAP,
                             require_torsion_free: bool = True) -> HolonomyReport:
    """Conjugation action of a finite quotient on its kernel's
    abelianization, over every coset.

    Only the generator matrices come from Schreier rewriting.  Coset c's
    representative is its tree parent's word plus one letter y, so its
    matrix is M(parent) * M(s_y); the parent is c.y, since generator
    actions are involutions.  A coset's matrix is read again only as a
    tree parent, so it is dropped once its last child is built; over the
    720 cosets of S_6 at most 96 matrices are live at once.

    The lattice is the free part of the abelianized kernel.  When the
    abelianization has torsion the quotient cannot be certified
    crystallographic on this lattice; by default that raises
    LatticeTorsionError, and with ``require_torsion_free=False`` the
    torsion is carried on the report instead.
    """
    rewriter = KernelRewriter(qmap, cap)
    table = rewriter.table
    torsion = rewriter.torsion
    if torsion and require_torsion_free:
        raise LatticeTorsionError(torsion)
    dim = rewriter.rank
    ident = Matrix.identity(dim)
    gens = [rewriter.conjugation_matrix((y,), allow_torsion=True)
            for y in range(1, qmap.system.rank + 1)]
    parents = [table.action[c][table.transversal[c][-1] - 1]
               for c in range(1, table.count)]
    last_child = {p: c for c, p in enumerate(parents, 1)}
    mats: dict[int, Matrix] = {0: ident}
    witnesses = []
    for c, p in enumerate(parents, 1):
        word = table.transversal[c]
        mat = mats[p] * gens[word[-1] - 1]
        if last_child[p] == c:
            del mats[p]
        if c in last_child:
            mats[c] = mat
        if mat == ident:
            witnesses.append(word)
    return HolonomyReport(
        quotient=_quotient_label(qmap),
        dimension=dim,
        holonomy_order=table.count,
        faithful=not witnesses,
        kernel_witnesses=tuple(witnesses),
        lattice_torsion=torsion,
    )


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


def theta_cross_check(n: int, cap: int = DEFAULT_CAP) -> bool:
    """Do the closed-form matrices match the conjugation computation?

    Runs the Schreier route over the mod-2 abelianization of the twin
    group and expresses the b-class dictionary in the Schreier basis as
    the columns of B.  B must be unimodular (determinant +-1), else
    BasisSpanError; then each generator's conjugation matrix C matches
    Theta_k in the b-basis exactly when C B = B Theta_k.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    rewriter = KernelRewriter(quotient_map(twin(n), "mod2_abelian"), cap)
    if rewriter.torsion:
        raise LatticeTorsionError(rewriter.torsion)
    dim = _basis_size(n)
    if rewriter.rank != dim:
        raise BasisSpanError(
            f"kernel abelianization has rank {rewriter.rank}, expected {dim}")
    betas = []
    for j in range(1, n - 1):
        betas.append(beta_word(n, j, 0))
        if j >= 2:
            betas.append(beta_word(n, j, 1))
    coords = [rewriter.free_coordinates(w) for w in betas]
    b_mat = Matrix(tuple(tuple(coords[j][i] for j in range(dim))
                         for i in range(dim)))
    if b_mat.det() not in (1, -1):
        raise BasisSpanError("b-class dictionary is not a lattice basis")
    for k in range(1, n):
        conj = rewriter.conjugation_matrix((k,))
        if conj * b_mat != b_mat * theta_generator_matrix(n, k):
            return False
    return True

