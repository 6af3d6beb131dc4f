import heapq
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from smallcox import cli, rewriting
from smallcox.congruence import (BudgetExceededError, FiniteQuotientMap,
                                 odd_bond_classes)
from smallcox.coxeter import (CoxeterError, build_system,
                              parse_coxeter_matrix, racg_system, relators,
                              simple_graph, symmetric, triplet, twin,
                              universal)
from smallcox.crystallo import holonomy_via_conjugation
from smallcox.matrices import (Matrix, dense_rows, mul_columns,
                               smith_normal_form)
from smallcox.perms import adjacent_transposition
from smallcox.rewriting import (AbelianInvariants, KernelRewriter,
                                Presentation, RelationCheckError,
                                _exponent_row, _relator_rows,
                                abelian_invariants, coset_table,
                                cyclically_reduce, format_presentation,
                                free_reduce_signed, invert_signed,
                                quotient_map, tietze_simplify)
from smallcox.tits import evaluate
from test_perms import identity, multiply


def kernel_rewriter(system, kind, m=None):
    rewriter = KernelRewriter(quotient_map(system, kind, m))
    return rewriter.table, rewriter


def _reidemeister_schreier(qmap):
    """The full Reidemeister-Schreier presentation of the kernel, the
    route the package took before it presented kernels on cells.

    One generator u_c s_y (u_{c.y})^-1 per pair (c, y) off the tree
    edges, numbered in (coset, letter) order, and one freely reduced
    rewrite per (coset, ambient relator) pair, empty rewrites dropped.
    Returns the presentation, the pair of each generator, and the
    rewrite: the signed generators that a signed ambient word crosses
    from coset ``start``.
    """
    table = coset_table(qmap)
    words, action = table.transversal, table.action
    pairs = [(c, y) for c, row in enumerate(action)
             for y, t in enumerate(row, 1) if words[c] + (y,) != words[t]]
    label = {pair: k for k, pair in enumerate(pairs, 1)}

    def rewrite(word, start=0):
        out, c = [], start
        for letter in word:
            y = abs(letter)
            if letter < 0:
                c = action[c][y - 1]  # s_y^-1 crosses the pair it ends at
            k = label.get((c, y), 0)
            if letter > 0:
                c = action[c][y - 1]
            if k:
                out.append(k if letter > 0 else -k)
        return out

    rels = (free_reduce_signed(rewrite(rel, c)) for c in range(table.count)
            for rel in relators(qmap.system))
    return Presentation(len(pairs), tuple(r for r in rels if r)), pairs, \
        rewrite


class TestCoxeterPresentation:
    def test_twin_rank_two(self):
        assert twin(3).rank == 2
        assert set(relators(twin(3))) == {(1, 1), (2, 2)}

    def test_symmetric_rank_two(self):
        assert set(relators(symmetric(3))) == {(1, 1), (2, 2),
                                               (1, 2, 1, 2, 1, 2)}

    def test_triplet_four_strands(self):
        assert triplet(4).rank == 3
        assert set(relators(triplet(4))) == {(1, 1), (2, 2), (3, 3),
                                             (1, 2) * 3, (2, 3) * 3}

    def test_universal_has_only_squares(self):
        assert set(relators(universal(5))) == {(i, i) for i in range(1, 5)}


class TestQuotientMap:
    def test_symmetric_on_triplet(self):
        qmap = quotient_map(triplet(4), "symmetric")
        assert tuple(qmap.image_of_word((1,))) == (1, 0, 2, 3)
        assert coset_table(qmap).count == 24

    def test_mod2_abelian_on_twin(self):
        # images are bit masks: s_k sets bit k-1, its own class
        qmap = quotient_map(twin(4), "mod2_abelian")
        assert qmap.identity_image == 0
        assert tuple(qmap.image_of_word((k,)) for k in (1, 2, 3)) == \
            (0b001, 0b010, 0b100)
        assert qmap.image_of_word((1, 3, 2, 3)) == 0b011

    def test_mod2_abelian_on_triplet_is_parity(self):
        # consecutive odd bonds merge every generator class into bit 0
        qmap = quotient_map(triplet(4), "mod2_abelian")
        assert tuple(qmap.image_of_word((k,)) for k in (1, 2, 3)) == \
            (1, 1, 1)
        assert qmap.image_of_word((1, 2)) == 0

    @pytest.mark.parametrize("system", [
        twin(5), triplet(5),
        racg_system(simple_graph(5, [(1, 2), (2, 3), (4, 5)]))],
        ids=["twin5", "triplet5", "right-angled5"])
    def test_mod2_abelian_sets_the_class_bit(self, system):
        qmap = quotient_map(system, "mod2_abelian")
        classes = odd_bond_classes(system)
        for k in range(1, system.rank + 1):
            assert qmap.image_of_word((k,)) == 1 << classes[k - 1]

    def test_modular_on_twin(self):
        # images are row ids into the map's interned row list
        qmap = quotient_map(twin(4), "modular", 6)
        assert tuple(qmap.identity_image) == (0, 1, 2)
        assert tuple(qmap.rows[i] for i in qmap.image_of_word((1,))) == \
            ((5, 2, 0), (0, 1, 0), (0, 0, 1))

    def test_symmetric_needs_chain_family(self):
        with pytest.raises(RelationCheckError):
            quotient_map(universal(4), "symmetric")

    def test_modular_needs_modulus(self):
        with pytest.raises(ValueError):
            quotient_map(twin(4), "modular")

    @pytest.mark.parametrize("kind", ["symmetric", "mod2_abelian", "trivial"])
    def test_modulus_is_only_for_modular(self, kind):
        # quotient_map(twin(4), "symmetric", 5) once dropped the 5
        with pytest.raises(ValueError, match="m is only for the modular"):
            quotient_map(twin(4), kind, 5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            quotient_map(twin(4), "nonsense")

    @pytest.mark.parametrize("word", [(0,), (4,), (-4,), (1, 2, 0), (2, 7),
                                      (-1,), (-3, 2)])
    @pytest.mark.parametrize("kind,m", [("symmetric", None),
                                        ("mod2_abelian", None),
                                        ("modular", 3)])
    def test_letters_outside_the_rank_are_rejected(self, kind, m, word):
        # a 0 once read as s_3, the last generator, a 4 indexed past the
        # generator images, and a -y read as y; the check runs before
        # the first step
        qmap = quotient_map(twin(4), kind, m)
        steps = []
        counted = FiniteQuotientMap(
            qmap.system, kind, qmap.identity_image,
            lambda x, k: steps.append(k) or qmap.step(x, k), m, qmap.rows)
        steps.clear()  # construction steps through the relators
        with pytest.raises(CoxeterError, match=r"outside 1\.\.3"):
            counted.image_of_word(word)
        assert steps == []

    def test_step_breaking_a_bond_is_rejected(self):
        # s_1 and s_3 commute in the twin group, but (0 1) and (1 2) do not
        swaps = [adjacent_transposition(4, i) for i in (1, 2, 2)]
        with pytest.raises(RelationCheckError, match="bond relation"):
            FiniteQuotientMap(twin(4), "symmetric", identity(4),
                              lambda p, k: multiply(p, swaps[k]))

    def test_step_breaking_a_square_is_rejected(self):
        cycle = (1, 2, 0)
        with pytest.raises(RelationCheckError, match="not an involution"):
            FiniteQuotientMap(twin(3), "symmetric", identity(3),
                              lambda p, k: multiply(p, cycle))


class TestCosetTable:
    def test_triplet_symmetric_has_24_cosets(self):
        qmap = quotient_map(triplet(4), "symmetric")
        assert coset_table(qmap).count == 24

    def test_twin3_mod2_transversal(self):
        qmap = quotient_map(twin(3), "mod2_abelian")
        table = coset_table(qmap)
        assert table.transversal == ((), (1,), (2,), (1, 2))

    def test_twin4_mod3_matches_symmetric_map(self):
        # the kernel of the mod-3 reduction is the pure twin group, so
        # both maps induce the same coset structure
        modular = coset_table(quotient_map(twin(4), "modular", 3))
        permutation = coset_table(quotient_map(twin(4), "symmetric"))
        assert modular.count == permutation.count == 24
        assert modular.transversal == permutation.transversal
        assert modular.action == permutation.action

    @pytest.mark.parametrize("family,m", [(twin, 3), (twin, 6), (triplet, 2)])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_modular_kernel_matches_symmetric_map(self, family, m, n):
        # PT_n is the level-3 (and level-6) congruence subgroup of T_n,
        # PL_n the level-2 one of L_n
        modular = coset_table(quotient_map(family(n), "modular", m))
        permutation = coset_table(quotient_map(family(n), "symmetric"))
        assert modular.count == permutation.count == math.factorial(n)
        assert modular.transversal == permutation.transversal
        assert modular.action == permutation.action

    def test_transversal_is_prefix_closed_and_shortlex(self):
        table = coset_table(quotient_map(triplet(4), "symmetric"))
        words = set(table.transversal)
        for word in table.transversal:
            assert word[:-1] in words or word == ()
        lengths = [len(w) for w in table.transversal]
        assert lengths == sorted(lengths)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            coset_table(quotient_map(triplet(4), "symmetric"), cap=5)

    @pytest.mark.parametrize("family", [twin, triplet])
    @pytest.mark.parametrize("kind,m", [("symmetric", None),
                                        ("mod2_abelian", None),
                                        ("modular", 4)])
    def test_parents_never_decrease(self, family, kind, m):
        # coset c's parent is c.y for its last letter y, and comes
        # before c; the holonomy walk computes a coset's row from its
        # parent's on this
        table = coset_table(quotient_map(family(5), kind, m))
        parents = [table.action[c][word[-1] - 1]
                   for c, word in enumerate(table.transversal) if word]
        assert parents == sorted(parents)
        assert all(table.transversal[p] + word[-1:] == word for p, word in
                   zip(parents, table.transversal[1:]))

    def test_involution_check_of_the_coset_table(self):
        # s_1 sends both 2 and 3 to 3; the relator check from the
        # identity passes, and the table's own check does not
        T = [{0: 1, 1: 0, 2: 3, 3: 3}, {0: 2, 2: 0, 1: 1, 3: 3}]
        qmap = FiniteQuotientMap(twin(3), "hand", 0, lambda x, k: T[k][x])
        with pytest.raises(RelationCheckError, match="not an involution"):
            coset_table(qmap)


class TestReidemeisterSchreier:
    @pytest.mark.parametrize("system,kind,m", [
        (twin(4), "symmetric", None), (triplet(4), "mod2_abelian", None),
        (twin(4), "modular", 6), (twin(4), "trivial", None)])
    def test_rewriter_builds_the_map_coset_table(self, system, kind, m):
        qmap = quotient_map(system, kind, m)
        rewriter = KernelRewriter(qmap)
        assert rewriter.table == coset_table(qmap)

    def test_rewriter_keeps_the_coset_budget(self):
        qmap = quotient_map(triplet(4), "symmetric")
        with pytest.raises(BudgetExceededError):
            KernelRewriter(qmap, cap=5)
        assert KernelRewriter(qmap, cap=24).table.count == 24

    def test_twin3_commutator_subgroup(self):
        table, rewriter = kernel_rewriter(twin(3), "mod2_abelian")
        assert rewriter.num_schreier == 4 * 2 - 3
        simp = tietze_simplify(rewriter.presentation)
        assert (simp.generators, simp.relators) == (1, ())
        # the surviving generator is the class of s_2 s_1 s_2 s_1
        coords = rewriter.free_coordinates((2, 1, 2, 1))
        assert coords in ({0: 1}, {0: -1})

    fixtures = [
        (twin(3), "mod2_abelian", None),
        (twin(4), "mod2_abelian", None),
        (twin(4), "symmetric", None),
        (twin(4), "modular", 6),
        (triplet(4), "symmetric", None),
        (triplet(4), "mod2_abelian", None),
        (symmetric(4), "symmetric", None),
    ]

    def test_index_formula_across_fixtures(self):
        for system, kind, m in self.fixtures:
            table, rewriter = kernel_rewriter(system, kind, m)
            pres = _reidemeister_schreier(quotient_map(system, kind, m))[0]
            n, g = table.count, system.rank
            assert rewriter.num_schreier == pres.generators == n * g - (n - 1)

    def test_distinct_rows_keep_the_invariants(self):
        # the Smith form of every relator row, repeats included,
        # against that of the distinct rows; no row is kept twice, and
        # none is the negative of another
        for system, kind, m in self.fixtures:
            pres = _reidemeister_schreier(quotient_map(system, kind, m))[0]
            every = smith_normal_form(
                [_exponent_row(rel).items() for rel in pres.relators],
                pres.generators)
            rows = [frozenset(row) for row in _relator_rows(pres)]
            assert len(set(rows)) == len(rows) < len(pres.relators)
            assert not set(rows) & {frozenset((k, -x) for k, x in row)
                                    for row in rows}
            assert abelian_invariants(pres) == AbelianInvariants(
                pres.generators - len(every.divisors), every.torsion)

    @pytest.mark.parametrize("system,rows",
                             [(twin(5), 420), (triplet(5), 360)])
    def test_relator_rows_of_rank_five_kernels(self, system, rows):
        # the rotations of a relator's rewrite give equal rows, so the
        # 840 relators of PT_5 and PL_5 give 420 and 360 distinct rows
        pres = _reidemeister_schreier(quotient_map(system, "symmetric"))[0]
        assert len(pres.relators) == 840
        assert len(_relator_rows(pres)) == rows

    def test_kernel_of_isomorphism_is_trivial(self):
        table, rewriter = kernel_rewriter(symmetric(3), "symmetric")
        simp = tietze_simplify(rewriter.presentation)
        assert (simp.generators, simp.relators) == (0, ())

    def test_pure_triplet_free_generators(self):
        # the six nontrivial kernel generators of the 4-strand triplet
        # group, written over the ambient alphabet, satisfy
        # x6 = x2 x4^-1 x1^-1 x5 x3^-1; the faithful integral
        # representation certifies the equality
        system = triplet(4)
        x1 = (1, 3, 1, 3)
        x2 = (2,) + x1 + (2,)
        x3 = (1, 2) + x1 + (2, 1)
        x4 = (3, 2) + x1 + (2, 3)
        x5 = (1, 3, 2) + x1 + (2, 3, 1)
        x6 = (2, 1, 3, 2) + x1 + (2, 3, 1, 2)
        lhs = evaluate(system, x6)
        rhs = (evaluate(system, x2) *
               invert(system, x4) * invert(system, x1) *
               evaluate(system, x5) * invert(system, x3))
        assert lhs == rhs
        # and they are visible in the kernel's abelianization
        table, rewriter = kernel_rewriter(system, "symmetric")
        assert rewriter.rank == 5
        c = [rewriter.free_coordinates(w) for w in (x1, x2, x3, x4, x5, x6)]
        assert mul_columns(c, [{1: 1, 3: -1, 0: -1, 4: 1, 2: -1}]) == [c[5]]

    @pytest.mark.parametrize("system,kind,m", [
        (twin(4), "symmetric", None), (triplet(4), "mod2_abelian", None),
        (twin(4), "modular", 6), (symmetric(4), "symmetric", None),
        (twin(4), "trivial", None)])
    def test_columns_name_the_non_tree_edges(self, system, kind, m):
        # a column is an edge {c, c.y} whose pair (c, y) at the end
        # c <= c.y is not a tree edge, where the representative of c,
        # extended by y, is the chosen representative of c.y; the
        # columns come in (coset, letter) order, and every other
        # Schreier generator is at the other end of a column's edge or
        # at the child end of a tree edge
        table, rewriter = kernel_rewriter(system, kind, m)
        words, action = table.transversal, table.action
        edges = [(c, y) for c in range(table.count)
                 for y in range(1, system.rank + 1)
                 if c <= action[c][y - 1]
                 and words[c] + (y,) != words[action[c][y - 1]]]
        assert list(rewriter.columns) == edges
        fixed = sum(action[c][y - 1] == c for c, y in edges)
        assert rewriter.num_schreier == \
            2 * len(edges) - fixed + table.count - 1

    def test_scan_rejects_non_kernel_words(self):
        table, rewriter = kernel_rewriter(twin(3), "mod2_abelian")
        with pytest.raises(ValueError, match="not in kernel"):
            rewriter.free_coordinates((1,))

    @pytest.mark.parametrize("letter", [0, 4, -4, 7, -1, -3])
    def test_letters_outside_the_rank_are_rejected(self, letter):
        # a 0 once indexed generator -1 and read as s_3, letter > rank
        # indexed past the table, and a -y once read as y
        table, rewriter = kernel_rewriter(twin(4), "symmetric")
        for method in (rewriter.free_coordinates, rewriter.conjugation_matrix):
            with pytest.raises(CoxeterError, match=r"outside 1\.\.3"):
                method((letter, letter))

    @given(st.lists(st.integers(1, 6).flatmap(
        lambda g: st.sampled_from((g, -g))), max_size=30))
    def test_exponent_row_is_sparse_dense_count(self, word):
        dense = [0] * 6
        for letter in word:
            dense[abs(letter) - 1] += 1 if letter > 0 else -1
        row = _exponent_row(word)
        assert 0 not in row.values()
        assert row == {k: x for k, x in enumerate(dense) if x}


def _seeded_right_angled(seed, vertices):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(1, vertices + 1)
             for j in range(i + 1, vertices + 1) if rng.random() < 0.5]
    return racg_system(simple_graph(vertices, edges))


def _onto_z2_with_s3_trivial():
    """twin(4) onto Z_2 with s_1, s_2 the generator and s_3 trivial: each
    coset is a fixed point of s_3, and the graph has two cosets."""
    return FiniteQuotientMap(twin(4), "custom", 0, lambda x, k: x ^ (k < 2))


_CELL_MAPS = [
    *TestReidemeisterSchreier.fixtures,
    (twin(3), "modular", 2), (twin(4), "trivial", None),
    (triplet(4), "trivial", None), (twin(5), "symmetric", None),
    (triplet(5), "symmetric", None), (twin(6), "mod2_abelian", None),
    (triplet(5), "mod2_abelian", None), (symmetric(5), "modular", 3),
    *[(_seeded_right_angled(seed, vertices), kind, m)
      for seed, vertices in ((1, 4), (2, 4), (3, 5), (4, 5))
      for kind, m in (("mod2_abelian", None), ("modular", 3),
                      ("modular", 4), ("trivial", None))],
]


def _coset(table, word):
    c = 0
    for letter in word:
        c = table.action[c][letter - 1]
    return c


def _random_word(rng, rank, length):
    return tuple(rng.randrange(1, rank + 1) for _ in range(length))


class TestCellRoute:
    """The abelianized kernel from the cells of the coset graph (one
    column per non-tree edge, one row per bond and dihedral orbit)
    against ``abelian_invariants`` of the full Reidemeister-Schreier
    presentation."""

    @pytest.mark.parametrize("system,kind,m", _CELL_MAPS)
    def test_invariants_match_the_presentation(self, system, kind, m):
        qmap = quotient_map(system, kind, m)
        rewriter = KernelRewriter(qmap, cap=2000)
        assert rewriter.invariants == \
            abelian_invariants(_reidemeister_schreier(qmap)[0])
        assert (rewriter.rank, rewriter.torsion) == \
            (rewriter.invariants.rank, rewriter.invariants.torsion)

    def test_fixed_points_keep_a_column_with_row_two(self):
        qmap = _onto_z2_with_s3_trivial()
        rewriter = KernelRewriter(qmap)
        action = rewriter.table.action
        fixed = [j for j, (c, y) in enumerate(rewriter.columns)
                 if action[c][y - 1] == c]
        assert len(fixed) == 2
        assert [{j: 2} for j in fixed] == list(rewriter.cell_rows())[:2]
        assert rewriter.invariants == \
            abelian_invariants(_reidemeister_schreier(qmap)[0])

    def test_trivial_map_has_only_loops(self):
        # one coset: every generator is a loop, so three columns, their
        # squares, and the commuting bond (1,3) walked once
        rewriter = KernelRewriter(quotient_map(twin(4), "trivial"))
        assert len(rewriter.columns) == 3
        assert list(rewriter.cell_rows()) == \
            [{0: 2}, {1: 2}, {2: 2}, {0: 2, 2: 2}]

    @pytest.mark.parametrize("system,rows,columns,rank", [
        (twin(5), 90, 121, 31), (triplet(5), 60, 121, 61)])
    def test_cell_counts_of_rank_five_kernels(self, system, rows, columns,
                                              rank):
        # S_5 acts freely: 120 * 4 / 2 - 119 = 121 non-tree edges; PT_5
        # has three commuting bonds with 30 square orbits each, PL_5
        # three bonds of order 3 with 20 hexagon orbits each
        rewriter = KernelRewriter(quotient_map(system, "symmetric"))
        assert (len(list(rewriter.cell_rows())), len(rewriter.columns)) == \
            (rows, columns)
        assert rewriter.rank == rank

    @pytest.mark.parametrize("system", [twin(4), twin(5), triplet(4),
                                        triplet(5)],
                             ids=["PT4", "PT5", "PL4", "PL5"])
    def test_free_kernels_have_independent_rows(self, system):
        rewriter = KernelRewriter(quotient_map(system, "symmetric"))
        assert rewriter.torsion == ()
        assert rewriter.rank == len(rewriter.columns) - \
            len(list(rewriter.cell_rows()))

    def test_columns_fold_both_labels_of_an_edge(self):
        # a column's Schreier generator is the pair at its lower end;
        # the other end folds to the negative, a tree edge to nothing
        rewriter = KernelRewriter(quotient_map(triplet(4), "symmetric"))
        action, fold = rewriter.table.action, rewriter._fold
        for j, (c, y) in enumerate(rewriter.columns, 1):
            assert fold[c][y - 1] == j
            assert fold[action[c][y - 1]][y - 1] == -j
        tree = sum(row.count(0) for row in fold)
        assert tree == 2 * (rewriter.table.count - 1)


class TestLazyPresentation:
    """``abelianize`` never builds the presentation, and ``subgroup``
    never builds a Smith form."""

    @staticmethod
    def _recorded(monkeypatch):
        made = []

        class Recorded(KernelRewriter):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(rewriting, "KernelRewriter", Recorded)
        return made

    def test_abelianize_never_builds_the_presentation(self, monkeypatch,
                                                      capsys):
        made = self._recorded(monkeypatch)
        assert cli.dispatch(["abelianize", "--family", "twin", "-n", "5",
                             "--map", "symmetric"]) == 0
        assert capsys.readouterr().out == "Z^31\n"
        (rewriter,) = made
        assert "presentation" not in rewriter.__dict__
        assert "smith" not in rewriter.__dict__  # a bare Smith form

    def test_subgroup_never_builds_a_smith_form(self, monkeypatch, capsys):
        made = self._recorded(monkeypatch)
        assert cli.dispatch(["subgroup", "--family", "triplet", "-n", "4",
                             "--map", "symmetric", "--simplify"]) == 0
        assert capsys.readouterr().out == "cosets 24\ngens 5\n"
        (rewriter,) = made
        assert "presentation" in rewriter.__dict__
        for smith in ("smith", "invariants", "_coordinates"):
            assert smith not in rewriter.__dict__


# a right-angled Coxeter matrix as ``--matrix`` reads it
_RIGHT_ANGLED_MATRIX = """5
1 2 inf 2 inf
2 1 inf 2 2
inf inf 1 inf 2
2 2 inf 1 2
inf 2 2 2 1
"""


class TestCellPresentation:
    """The presentation on the cells of the coset graph against the full
    Reidemeister-Schreier presentation of ``_reidemeister_schreier``: a
    Tietze transform of it, so the abelian invariants agree, and so does
    the generator count that ``tietze_simplify`` reaches."""

    @staticmethod
    def _check(qmap):
        rewriter = KernelRewriter(qmap)
        cells = rewriter.presentation
        reference = _reidemeister_schreier(qmap)[0]
        assert cells.generators == len(rewriter.columns)
        assert abelian_invariants(cells) == abelian_invariants(reference) \
            == rewriter.invariants
        assert tietze_simplify(cells).generators == \
            tietze_simplify(reference).generators

    @pytest.mark.parametrize("kind,m", [("symmetric", None),
                                        ("mod2_abelian", None),
                                        ("trivial", None), ("modular", 3),
                                        ("modular", 6)])
    @pytest.mark.parametrize("family", [twin, triplet, symmetric])
    def test_matches_the_reference(self, family, kind, m):
        # triplet(5) mod 6 has 38,880 cosets, so level 6 stops at n = 4
        for n in (3, 4) if m == 6 else (3, 4, 5):
            self._check(quotient_map(family(n), kind, m))

    @pytest.mark.parametrize("kind,m", [("mod2_abelian", None),
                                        ("trivial", None), ("modular", 3),
                                        ("modular", 4)])
    def test_right_angled_matrix_matches_the_reference(self, kind, m):
        system = parse_coxeter_matrix(_RIGHT_ANGLED_MATRIX)
        self._check(quotient_map(system, kind, m))

    @pytest.mark.parametrize("qmap", [
        quotient_map(twin(5), "symmetric"),
        quotient_map(triplet(5), "mod2_abelian"),
        quotient_map(symmetric(4), "modular", 3),
        quotient_map(twin(4), "trivial"),
        _onto_z2_with_s3_trivial()],
        ids=["PT_5", "triplet5-mod2", "S4-mod3", "twin4-trivial", "onto-z2"])
    def test_relators_are_the_cell_words(self, qmap):
        # freely reduced and in the order of the cell rows, each row the
        # exponent sums of its relator; a relator may sum to zero
        rewriter = KernelRewriter(qmap)
        rels = rewriter.presentation.relators
        assert all(rel and free_reduce_signed(rel) == rel for rel in rels)
        rows = [row for row in map(_exponent_row, rels) if row]
        assert rows == list(rewriter.cell_rows())

    def test_pure_triplet_four_is_thirteen_by_eight(self):
        # the pl4-free-rank-5 claim: 13 columns, two hexagon bonds with
        # 24 / 6 = 4 orbits each, and Tietze reaches the free group
        cells = kernel_rewriter(triplet(4), "symmetric")[1].presentation
        assert (cells.generators, len(cells.relators)) == (13, 8)
        assert tietze_simplify(cells) == Presentation(5, ())

    def test_pure_twin_six_is_efficient(self):
        # 20 relators on 111 generators: PT_6 abelianizes to Z^111 and
        # H_2(PT_6) has rank 20, so no presentation of PT_6 has fewer
        # relators; from the full presentation Tietze stops at 80, which
        # are 20 classes up to rotation and inversion, and keeps one of each
        qmap = quotient_map(twin(6), "symmetric")
        cells = KernelRewriter(qmap).presentation
        assert (cells.generators, len(cells.relators)) == (1081, 1080)
        simp = tietze_simplify(cells)
        assert (simp.generators, len(simp.relators)) == (111, 20)
        assert simp == _tietze_reference(cells)
        full = tietze_simplify(_reidemeister_schreier(qmap)[0])
        assert (full.generators, len(full.relators)) == (111, 20)


def invert(system, word):
    return evaluate(system, tuple(reversed(word)))


class TestTietze:
    def test_inverse_pair_collapses(self):
        pres = Presentation(2, ((1, 2),))
        simp = tietze_simplify(pres)
        assert (simp.generators, simp.relators) == (1, ())

    def test_torsion_relator_untouched(self):
        pres = Presentation(1, ((1, 1),))
        assert tietze_simplify(pres) == pres

    def test_relators_equal_up_to_rotation_and_inversion_are_kept_once(self):
        # a rotation and the inverse of the commutator, then (ab)^2 and
        # its inverse: the first of each class stays, in place
        commutator, square = (1, 2, -1, -2), (1, 2, 1, 2)
        pres = Presentation(2, (commutator, (2, -1, -2, 1), square,
                                (2, 1, -2, -1), (-2, -1, -2, -1)))
        assert tietze_simplify(pres) == Presentation(2, (commutator, square))

    def test_matches_full_rescan(self):
        # the indexed elimination makes the choices of a full rescan of
        # every relator in every round, so the output is the same
        rng = random.Random(23)
        for _ in range(200):
            g = rng.randrange(1, 7)
            rels = tuple(tuple(rng.choice((1, -1)) * rng.randrange(1, g + 1)
                               for _ in range(rng.randrange(0, 9)))
                         for _ in range(rng.randrange(0, 8)))
            pres = Presentation(g, rels)
            assert tietze_simplify(pres) == _tietze_full_rescan(pres)
        for system, kind in ((twin(4), "symmetric"), (triplet(4), "symmetric"),
                             (twin(5), "mod2_abelian")):
            qmap = quotient_map(system, kind)
            for pres in (KernelRewriter(qmap).presentation,
                         _reidemeister_schreier(qmap)[0]):
                assert tietze_simplify(pres) == _tietze_full_rescan(pres)

    def test_pure_triplet_is_free_of_rank_five(self):
        table, rewriter = kernel_rewriter(triplet(4), "symmetric")
        simp = tietze_simplify(rewriter.presentation)
        assert (simp.generators, len(simp.relators)) == (5, 0)

    @pytest.mark.parametrize("kind,m", [("symmetric", None),
                                        ("mod2_abelian", None),
                                        ("trivial", None), ("modular", 3)])
    @pytest.mark.parametrize("family", [twin, triplet, symmetric])
    def test_kernels_match_the_reference(self, family, kind, m):
        for n in (3, 4, 5):
            pres = KernelRewriter(quotient_map(family(n), kind, m)).presentation
            assert tietze_simplify(pres) == _tietze_reference(pres)

    def test_random_presentations_match_the_reference(self):
        rng = random.Random(41)
        stuck = 0  # inputs where no generator is ever lone
        for _ in range(300):
            g = rng.randrange(1, 7)
            rels = tuple(tuple(rng.choice((1, -1)) * rng.randrange(1, g + 1)
                               for _ in range(rng.randrange(0, 9)))
                         for _ in range(rng.randrange(0, 8)))
            pres = Presentation(g, rels)
            simp = tietze_simplify(pres)
            assert simp == _tietze_reference(pres)
            stuck += simp.generators == g and any(rels)
        assert stuck >= 20

    def test_larger_random_presentations_match_both_references(self):
        rng = random.Random(61)
        for _ in range(300):
            g = rng.randrange(1, 13)
            rels = tuple(tuple(rng.choice((1, -1)) * rng.randrange(1, g + 1)
                               for _ in range(rng.randrange(0, 13)))
                         for _ in range(rng.randrange(0, 21)))
            pres = Presentation(g, rels)
            simp = tietze_simplify(pres)
            assert simp == _tietze_reference(pres)
            assert simp == _tietze_full_rescan(pres)

    def test_relator_that_loses_a_generator_and_regains_it(self):
        # 1 = 3^-1 cancels the 3 of the third relator, 2 = 5^-1 3 puts
        # it back, and eliminating 3 must rewrite that relator once
        # although the lists of relators that may hold 3 name it thrice
        pres = Presentation(5, ((1, 3), (2, -3, 5), (1, 3, 2, 4, 4, 2),
                                (3, 5, 5, 4)))
        simp = tietze_simplify(pres)
        assert simp == _tietze_reference(pres) == _tietze_full_rescan(pres)
        assert simp == Presentation(
            2, ((-2, -1, -2, -2, 1, 1, -2, -1, -2, -2),))

    def test_relator_rewritten_to_the_same_length_before_its_pop(self):
        # 1 = 2 turns the second relator into (2, 3, 3) while its first
        # heap entry, pushed for (1, 3, 3), is still waiting: the pop
        # must solve the word it finds for 2, not the one pushed for 1
        pres = Presentation(5, ((1, -2), (1, 3, 3), (2, 2, 4, 4, 3, 5)))
        simp = tietze_simplify(pres)
        assert simp == _tietze_reference(pres) == _tietze_full_rescan(pres)
        assert simp == Presentation(2, ())

    def test_pure_twin_six_matches_the_reference(self):
        # on the cells and on the full presentation, 7920 relators
        qmap = quotient_map(twin(6), "symmetric")
        for pres in (KernelRewriter(qmap).presentation,
                     _reidemeister_schreier(qmap)[0]):
            assert tietze_simplify(pres) == _tietze_reference(pres)

    def test_preserves_abelian_invariants(self):
        rng = random.Random(5)
        for system, kind in ((twin(4), "symmetric"), (twin(4), "mod2_abelian"),
                             (triplet(4), "mod2_abelian"),
                             (triplet(4), "symmetric")):
            pres = kernel_rewriter(system, kind)[1].presentation
            assert abelian_invariants(tietze_simplify(pres)) == \
                abelian_invariants(pres)
        for _ in range(25):
            g = rng.randrange(1, 5)
            rels = tuple(tuple(rng.choice((1, -1)) * rng.randrange(1, g + 1)
                               for _ in range(rng.randrange(0, 7)))
                         for _ in range(rng.randrange(0, 5)))
            pres = Presentation(g, rels)
            assert abelian_invariants(tietze_simplify(pres)) == \
                abelian_invariants(pres)


def _tietze_reference(pres):
    """The heap-indexed elimination as it stood before substitution and
    reduction shared one loop: each changed relator is taken out of the
    index and put back, recounted with ``Counter``."""
    relators = {}
    holders = {g: set() for g in range(1, pres.generators + 1)}
    heap = []

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
            continue
        take(ri)
        at = rel.index(g) if g in rel else rel.index(-g)
        spun = rel[at:] + rel[:at]
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
    return _first_of_each_class(Presentation(len(alive), final))


def _tietze_full_rescan(pres):
    """Tietze elimination that recounts and rewrites every relator in
    every round: the shortest relator with a lone generator, earliest
    on ties, and its first lone generator."""
    relators = [r for r in map(cyclically_reduce, pres.relators) if r]
    alive = list(range(1, pres.generators + 1))
    while True:
        target = None
        for ri, rel in enumerate(relators):
            counts = {}
            for letter in rel:
                counts[abs(letter)] = counts.get(abs(letter), 0) + 1
            lone = [g for g, cnt in counts.items() if cnt == 1]
            if lone and (target is None or
                         len(rel) < len(relators[target[0]])):
                target = (ri, lone[0])
        if target is None:
            break
        ri, g = target
        rel = relators.pop(ri)
        at = next(i for i, letter in enumerate(rel) if abs(letter) == g)
        spun = rel[at:] + rel[:at]
        sub = invert_signed(spun[1:]) if spun[0] == g else spun[1:]
        relators = [r for r in (cyclically_reduce(
            [x for letter in other
             for x in (sub if letter == g else invert_signed(sub)
                       if letter == -g else (letter,))])
            for other in relators) if r]
        alive.remove(g)
    renumber = {g: i + 1 for i, g in enumerate(alive)}
    return _first_of_each_class(Presentation(len(alive), tuple(
        tuple((1 if x > 0 else -1) * renumber[abs(x)] for x in rel)
        for rel in relators)))


def _first_of_each_class(pres):
    """The first relator of each class up to rotation and inversion, a
    class named by the set of all rotations of the word and its inverse."""
    kept = {}
    for rel in pres.relators:
        rotations = frozenset(w[i:] + w[:i] for w in (rel, invert_signed(rel))
                              for i in range(len(w)))
        kept.setdefault(rotations, rel)
    return Presentation(pres.generators, tuple(kept.values()))


class TestAbelianInvariants:
    """Abelianized kernels, each against a closed form.

    PT_4 = Gamma_6(T_4) is free of rank 7 (Bardakov-Singh-Vesnin), so it
    abelianizes to Z^7; T_n'/T_n'' is Z^(2n-5) (1, 3, 5, 7 for n = 3..6);
    and L_n'/L_n'' is Z_3^(n-2). test_rendering checks only the string form.
    """

    def test_pure_twin_four(self):
        table, rewriter = kernel_rewriter(twin(4), "modular", 6)
        inv = abelian_invariants(rewriter.presentation)
        assert inv == AbelianInvariants(7, ())

    def test_twin5_commutator(self):
        table, rewriter = kernel_rewriter(twin(5), "mod2_abelian")
        assert abelian_invariants(rewriter.presentation) == \
            AbelianInvariants(5, ())

    def test_triplet4_commutator_torsion(self):
        table, rewriter = kernel_rewriter(triplet(4), "mod2_abelian")
        assert abelian_invariants(rewriter.presentation) == \
            AbelianInvariants(0, (3, 3))

    @pytest.mark.parametrize("n,expected", [(3, 1), (4, 3), (5, 5), (6, 7)])
    def test_twin_commutator_rank(self, n, expected):
        table, rewriter = kernel_rewriter(twin(n), "mod2_abelian")
        inv = abelian_invariants(rewriter.presentation)
        assert inv == AbelianInvariants(expected, ())

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_triplet_commutator_torsion(self, n):
        table, rewriter = kernel_rewriter(triplet(n), "mod2_abelian")
        inv = abelian_invariants(rewriter.presentation)
        assert inv == AbelianInvariants(0, (3,) * (n - 2))

    def test_invariant_under_reordering(self):
        table, rewriter = kernel_rewriter(twin(4), "symmetric")
        pres = rewriter.presentation
        rng = random.Random(3)
        rels = list(pres.relators)
        rng.shuffle(rels)
        perm = list(range(1, pres.generators + 1))
        rng.shuffle(perm)
        relabeled = tuple(
            tuple((1 if x > 0 else -1) * perm[abs(x) - 1] for x in rel)
            for rel in rels)
        assert abelian_invariants(Presentation(pres.generators, relabeled)) \
            == abelian_invariants(pres)

    def test_no_relators_is_free(self):
        assert abelian_invariants(Presentation(3, ())) == \
            AbelianInvariants(3, ())
        assert abelian_invariants(Presentation(0, ())) == \
            AbelianInvariants(0, ())

    def test_rendering(self):
        assert str(AbelianInvariants(7, ())) == "Z^7"
        assert str(AbelianInvariants(1, ())) == "Z"
        assert str(AbelianInvariants(0, (3, 3))) == "Z_3 + Z_3"
        assert str(AbelianInvariants(0, ())) == "0"
        assert str(AbelianInvariants(2, (2, 4))) == "Z^2 + Z_2 + Z_4"


_COLUMN_MAPS = [
    quotient_map(twin(4), "symmetric"), quotient_map(twin(5), "symmetric"),
    quotient_map(triplet(4), "symmetric"),
    quotient_map(triplet(5), "symmetric"),
    quotient_map(twin(4), "modular", 3), quotient_map(twin(5), "mod2_abelian"),
    _onto_z2_with_s3_trivial(),
    # kernel Z + Z_3 + Z_3: the free coordinates skip V's torsion columns
    quotient_map(build_system([[1, 3, None], [3, 1, None], [None, None, 1]]),
                 "mod2_abelian")]
_COLUMN_IDS = ["PT_4", "PT_5", "PL_4", "PL_5", "twin4-mod3", "twin5-mod2",
               "onto-z2", "torsion-and-free"]


class TestConjugation:
    def test_rank_one_kernel_inverted_by_generator(self):
        mat = KernelRewriter(quotient_map(twin(3), "symmetric")) \
            .conjugation_matrix((1,))
        assert mat.rows == ((-1,),)

    def test_identity_word_gives_identity(self):
        table, rewriter = kernel_rewriter(twin(4), "symmetric")
        assert rewriter.conjugation_matrix(()).is_identity()

    def test_moves_pair_cube_class(self):
        table, rewriter = kernel_rewriter(twin(4), "symmetric")
        cols = rewriter.conjugation_columns((3,))
        v = rewriter.free_coordinates((1, 2) * 3)
        assert mul_columns(cols, [v]) == \
            [rewriter.free_coordinates((3,) + (1, 2) * 3 + (3,))]

    def test_multiplicative(self):
        table, rewriter = kernel_rewriter(twin(4), "symmetric")
        rng = random.Random(17)
        for _ in range(50):
            u = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 6)))
            v = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 6)))
            assert rewriter.conjugation_matrix(u + v) == \
                rewriter.conjugation_matrix(u) * rewriter.conjugation_matrix(v)

    def test_tree_products_match_direct_route(self):
        # each coset word is its tree parent's word plus one letter, so
        # the generator-matrix products along it are the tree products
        table, rewriter = kernel_rewriter(twin(4), "symmetric")
        gens = [rewriter.conjugation_matrix((y,)) for y in (1, 2, 3)]
        for word in table.transversal:
            product = Matrix.identity(rewriter.rank)
            for y in word:
                product = product * gens[y - 1]
            assert rewriter.conjugation_matrix(word) == product

    def test_pure_twin_five_transform(self):
        # the 90 x 121 cell matrix of PT_5: Z^31; every cell row, and
        # every relator of the full 840-relator presentation folded onto
        # the columns, times V vanishes on the free columns
        table, rewriter = kernel_rewriter(twin(5), "symmetric")
        pres, pairs, _ = _reidemeister_schreier(quotient_map(twin(5),
                                                             "symmetric"))
        relators = pres.relators
        assert (len(relators), rewriter.num_schreier) == (840, 361)
        sm = rewriter.smith
        assert (len(list(rewriter.cell_rows())), sm.ncols) == (90, 121)
        assert len(sm.free_columns) == 31 and sm.torsion == ()
        free = [sm.columns[j] for j in sm.free_columns]
        folded = []
        for rel in relators:
            row = {}
            for letter in rel:
                c, y = pairs[abs(letter) - 1]
                f = rewriter._fold[c][y - 1] * (1 if letter > 0 else -1)
                if f:
                    row[abs(f) - 1] = row.get(abs(f) - 1, 0) + \
                        (1 if f > 0 else -1)
            folded.append(row)
        for row in folded + list(rewriter.cell_rows()):
            assert all(sum(row.get(t, 0) * x for t, x in col.items()) == 0
                       for col in free)

    def test_rewrites_one_schreier_generator_per_free_column(self, monkeypatch):
        # no column of PT_5's cell matrix is demoted from pivot, so basis
        # vector i is the column order[i] itself and each generator's
        # matrix rewrites the conjugates of exactly the generators of
        # those 31 of the 121 columns
        table, rewriter = kernel_rewriter(twin(5), "symmetric")
        sm = rewriter.smith
        free = [sm.order[i] for i in sm.free_columns]
        assert list(sm.free_rows) == [{t: 1} for t in free]
        assert len(free) == 31
        calls = []
        original = rewriter.schreier_word

        def counted(k):
            calls.append(k)
            return original(k)

        monkeypatch.setattr(rewriter, "schreier_word", counted)
        for y in range(1, 5):
            calls.clear()
            rewriter.conjugation_matrix((y,))
            assert calls == free

    @pytest.mark.parametrize("qmap", [
        quotient_map(twin(4), "symmetric"),
        quotient_map(triplet(4), "symmetric"),
        quotient_map(twin(3), "modular", 2),
        quotient_map(twin(4), "trivial"),
        _onto_z2_with_s3_trivial()],
        ids=["PT_4", "PL_4", "twin3-mod2", "twin4-trivial", "onto-z2"])
    def test_conjugate_is_the_kernel_word_scanned_from_the_coset_of_w(
            self, qmap):
        # abelianized, the scans of w and of w^-1 = reversed(w) cancel
        # but for the squares x^2 = 1 of fixed-point columns, so w g w^-1
        # reads as the kernel word g scanned from the coset d of w, and
        # the matrix of w sends the coordinates of g to those
        rewriter = KernelRewriter(qmap)
        table, r, rng = rewriter.table, qmap.system.rank, random.Random(19)
        fixed = {t for t, (c, y) in enumerate(rewriter.columns)
                 if table.action[c][y - 1] == c}

        def abelianized(row):  # a fixed-point column counts mod 2
            return {t: e for t, x in row.items()
                    if (e := x % 2 if t in fixed else x)}

        for _ in range(40):
            w = _random_word(rng, r, rng.randrange(0, 9))
            v = _random_word(rng, r, rng.randrange(0, 9))
            g = v + tuple(reversed(table.transversal[_coset(table, v)]))
            d = _coset(table, w)
            conjugate = w + g + tuple(reversed(w))
            assert abelianized(rewriter._abelian_row(conjugate)) == \
                abelianized(rewriter._abelian_row(g, d))
            coords = rewriter.free_coordinates(g, start=d)
            assert rewriter.free_coordinates(conjugate) == coords
            x = rewriter.free_coordinates(g)
            assert mul_columns(rewriter.conjugation_columns(w), [x]) == \
                [coords]

    @pytest.mark.parametrize("qmap", _COLUMN_MAPS, ids=_COLUMN_IDS)
    def test_columns_are_the_columns_of_the_matrix(self, qmap):
        # each column is, independently, the free coordinates of the
        # conjugates w g w^-1 of the generators that lift its basis
        # vector, each rewritten whole from coset 0; the dense matrix
        # has those columns too
        rewriter = KernelRewriter(qmap)
        r, rng = qmap.system.rank, random.Random(23)
        words = [(y,) for y in range(1, r + 1)] + [
            _random_word(rng, r, rng.randrange(0, 9)) for _ in range(12)]
        for w in words:
            cols = rewriter.conjugation_columns(w)
            assert len(cols) == rewriter.rank
            assert all(0 not in col.values() for col in cols)
            whole = []
            for lift in rewriter.smith.free_rows:
                images = {t: rewriter.free_coordinates(
                    w + rewriter.schreier_word(t) + w[::-1]) for t in lift}
                whole += mul_columns(images, [lift])
            assert cols == whole
            assert rewriter.conjugation_matrix(w).rows == \
                dense_rows(whole, rewriter.rank)

    @pytest.mark.parametrize("qmap", _COLUMN_MAPS, ids=_COLUMN_IDS)
    def test_columns_multiply_along_the_word(self, qmap):
        # M(uv) = M(u) M(v), as sparse column products
        rewriter = KernelRewriter(qmap)
        r, rng = qmap.system.rank, random.Random(29)
        for _ in range(12):
            u = _random_word(rng, r, rng.randrange(0, 6))
            v = _random_word(rng, r, rng.randrange(0, 6))
            assert rewriter.conjugation_columns(u + v) == mul_columns(
                rewriter.conjugation_columns(u),
                rewriter.conjugation_columns(v))

    def test_torsion_reported(self):
        # L_4'/L_4'' is Z_3 + Z_3: the report carries the torsion and the
        # action on the (zero) free part is still computed
        qmap = quotient_map(triplet(4), "mod2_abelian")
        assert holonomy_via_conjugation(qmap).lattice_torsion == (3, 3)
        assert KernelRewriter(qmap).conjugation_matrix((1,)).dimension == 0

    def test_trivial_map_gives_empty_identity(self):
        table, rewriter = kernel_rewriter(twin(4), "trivial")
        assert table.count == 1
        assert rewriter.torsion == (2, 2, 2)
        mat = rewriter.conjugation_matrix((1, 2))
        assert mat.dimension == 0 and mat.is_identity()


def _parse_presentation(text):
    """Read the ``format_presentation`` text back."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("gens "):
        raise ValueError("presentation text must start with 'gens g'")
    g = int(lines[0].split()[1])
    rels = tuple(tuple(int(tok) for tok in ln.split()) for ln in lines[1:])
    return Presentation(g, rels)


class TestPresentationFormat:
    def test_round_trip(self):
        pres = Presentation(3, ((1, 2, -1, -2), (3, 3)))
        assert _parse_presentation(format_presentation(pres)) == pres

    def test_header_required(self):
        with pytest.raises(ValueError):
            _parse_presentation("1 2\n")

    def test_letter_range_checked(self):
        with pytest.raises(ValueError):
            Presentation(2, ((3,),))

    @pytest.mark.parametrize("rel", [(0,), (1, 0), (-3,)])
    def test_letter_zero_and_negative_letters_checked(self, rel):
        with pytest.raises(ValueError, match="outside range"):
            Presentation(2, (rel,))

    def test_equality_reads_both_parts(self):
        pres = Presentation(2, ((1, 2),))
        assert pres == Presentation(2, ((1, 2),))
        assert pres != Presentation(3, ((1, 2),))
        assert pres != Presentation(2, ((1, -2),))
