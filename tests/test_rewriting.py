import math
import random

import pytest
from hypothesis import given, strategies as st

from smallcox.congruence import BudgetExceededError, FiniteQuotientMap
from smallcox.coxeter import symmetric, triplet, twin, universal
from smallcox.matrices import Matrix
from smallcox.perms import adjacent_transposition, identity, multiply
from smallcox.rewriting import (AbelianInvariants, KernelRewriter,
                                LatticeTorsionError,
                                Presentation, RelationCheckError,
                                _exponent_row, abelian_invariants,
                                coset_table, coxeter_presentation,
                                cyclically_reduce, format_presentation,
                                invert_signed, parse_presentation,
                                quotient_map, tietze_simplify)
from smallcox.tits import evaluate


def kernel_rewriter(system, kind, m=None):
    rewriter = KernelRewriter(quotient_map(system, kind, m))
    return rewriter.table, rewriter


class TestCoxeterPresentation:
    def test_twin_rank_two(self):
        pres = coxeter_presentation(twin(3))
        assert pres.generators == 2
        assert set(pres.relators) == {(1, 1), (2, 2)}

    def test_symmetric_rank_two(self):
        pres = coxeter_presentation(symmetric(3))
        assert set(pres.relators) == {(1, 1), (2, 2), (1, 2, 1, 2, 1, 2)}

    def test_triplet_four_strands(self):
        pres = coxeter_presentation(triplet(4))
        assert pres.generators == 3
        assert set(pres.relators) == {(1, 1), (2, 2), (3, 3),
                                      (1, 2) * 3, (2, 3) * 3}

    def test_universal_has_only_squares(self):
        pres = coxeter_presentation(universal(5))
        assert set(pres.relators) == {(i, i) for i in range(1, 5)}


class TestQuotientMap:
    def test_symmetric_on_triplet(self):
        qmap = quotient_map(triplet(4), "symmetric")
        assert qmap.image_of_word((1,)) == (1, 0, 2, 3)
        assert coset_table(qmap).count == 24

    def test_mod2_abelian_on_twin(self):
        qmap = quotient_map(twin(4), "mod2_abelian")
        assert tuple(qmap.image_of_word((k,)) for k in (1, 2, 3)) == \
            ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_mod2_abelian_on_triplet_is_parity(self):
        # consecutive odd bonds merge every generator class
        qmap = quotient_map(triplet(4), "mod2_abelian")
        assert tuple(qmap.image_of_word((k,)) for k in (1, 2, 3)) == \
            ((1,), (1,), (1,))

    def test_modular_on_twin(self):
        qmap = quotient_map(twin(4), "modular", 6)
        assert qmap.image_of_word((1,)) == ((5, 2, 0), (0, 1, 0), (0, 0, 1))

    def test_symmetric_needs_chain_family(self):
        with pytest.raises(RelationCheckError):
            quotient_map(universal(4), "symmetric")

    def test_modular_needs_modulus(self):
        with pytest.raises(ValueError):
            quotient_map(twin(4), "modular")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            quotient_map(twin(4), "nonsense")

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
        pres = rewriter.presentation
        assert pres.generators == 4 * 2 - 3
        simp = tietze_simplify(pres)
        assert (simp.generators, simp.relators) == (1, ())
        # the surviving generator is the class of s_2 s_1 s_2 s_1
        coords = rewriter.free_coordinates((2, 1, 2, 1))
        assert coords in ((1,), (-1,))

    def test_index_formula_across_fixtures(self):
        fixtures = [
            (twin(3), "mod2_abelian", None),
            (twin(4), "mod2_abelian", None),
            (twin(4), "symmetric", None),
            (twin(4), "modular", 6),
            (triplet(4), "symmetric", None),
            (triplet(4), "mod2_abelian", None),
            (symmetric(4), "symmetric", None),
        ]
        for system, kind, m in fixtures:
            table, rewriter = kernel_rewriter(system, kind, m)
            pres = rewriter.presentation
            n, g = table.count, system.rank
            assert pres.generators == n * g - (n - 1)

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
        combo = [c[1][i] - c[3][i] - c[0][i] + c[4][i] - c[2][i]
                 for i in range(5)]
        assert tuple(combo) == c[5]

    def test_rewrite_rejects_non_kernel_words(self):
        table, rewriter = kernel_rewriter(twin(3), "mod2_abelian")
        with pytest.raises(ValueError):
            rewriter.exponent_vector((1,))

    @given(st.lists(st.integers(1, 6).flatmap(
        lambda g: st.sampled_from((g, -g))), max_size=30))
    def test_exponent_row_is_sparse_dense_count(self, word):
        dense = [0] * 6
        for letter in word:
            dense[abs(letter) - 1] += 1 if letter > 0 else -1
        row = _exponent_row(word)
        assert 0 not in row.values()
        assert row == {k: x for k, x in enumerate(dense) if x}


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
            table, rewriter = kernel_rewriter(system, kind)
            assert tietze_simplify(rewriter.presentation) == \
                _tietze_full_rescan(rewriter.presentation)

    def test_pure_triplet_is_free_of_rank_five(self):
        table, rewriter = kernel_rewriter(triplet(4), "symmetric")
        simp = tietze_simplify(rewriter.presentation)
        assert (simp.generators, len(simp.relators)) == (5, 0)

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
    return Presentation(len(alive), tuple(
        tuple((1 if x > 0 else -1) * renumber[abs(x)] for x in rel)
        for rel in relators))


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

    def test_rendering(self):
        assert str(AbelianInvariants(7, ())) == "Z^7"
        assert str(AbelianInvariants(1, ())) == "Z"
        assert str(AbelianInvariants(0, (3, 3))) == "Z_3 + Z_3"
        assert str(AbelianInvariants(0, ())) == "0"
        assert str(AbelianInvariants(2, (2, 4))) == "Z^2 + Z_2 + Z_4"


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
        mat = rewriter.conjugation_matrix((3,))
        v = rewriter.free_coordinates((1, 2) * 3)
        image = tuple(sum(mat.rows[i][j] * v[j] for j in range(7))
                      for i in range(7))
        assert image == rewriter.free_coordinates((3,) + (1, 2) * 3 + (3,))

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
        # the 840 x 361 relator matrix of PT_5: Z^31, and every relator
        # row times V vanishes on the free columns
        table, rewriter = kernel_rewriter(twin(5), "symmetric")
        relators = rewriter.presentation.relators
        assert (len(relators), rewriter.num_schreier) == (840, 361)
        sm = rewriter.smith
        assert len(sm.free_columns) == 31 and sm.torsion == ()
        free = sm.free_columns
        for rel in relators:
            row = [0] * rewriter.num_schreier
            for letter in rel:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            support = [t for t, x in enumerate(row) if x]
            assert all(sum(row[t] * sm.v[t][j] for t in support) == 0
                       for j in free)

    def test_rewrites_only_the_free_rows_of_v_inverse(self, monkeypatch):
        # each generator's matrix rewrites the conjugates of the Schreier
        # generators in the support of V^-1's free rows: 31 of the 361
        # for PT_5, every free row being a unit vector
        table, rewriter = kernel_rewriter(twin(5), "symmetric")
        sm = rewriter.smith
        support = sorted(t for i in sm.free_columns
                         for t, x in enumerate(sm.v_inv[i]) if x)
        assert len(support) == 31
        calls = []
        original = rewriter.schreier_word

        def counted(k):
            calls.append(k)
            return original(k)

        monkeypatch.setattr(rewriter, "schreier_word", counted)
        for y in range(1, 5):
            calls.clear()
            rewriter.conjugation_matrix((y,))
            assert sorted(calls) == support

    def test_torsion_reported(self):
        rewriter = KernelRewriter(quotient_map(triplet(4), "mod2_abelian"))
        with pytest.raises(LatticeTorsionError) as exc:
            rewriter.conjugation_matrix((1,))
        assert exc.value.torsion == (3, 3)

    def test_trivial_map_gives_empty_identity(self):
        table, rewriter = kernel_rewriter(twin(4), "trivial")
        assert table.count == 1
        assert rewriter.torsion == (2, 2, 2)
        mat = rewriter.conjugation_matrix((1, 2), allow_torsion=True)
        assert mat.dimension == 0 and mat.is_identity()


class TestPresentationFormat:
    def test_round_trip(self):
        pres = Presentation(3, ((1, 2, -1, -2), (3, 3)))
        assert parse_presentation(format_presentation(pres)) == pres

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_presentation("1 2\n")

    def test_letter_range_checked(self):
        with pytest.raises(ValueError):
            Presentation(2, ((3,),))
