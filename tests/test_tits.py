import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from smallcox.congruence import quotient_map
from smallcox.coxeter import (INF, NonSmallSystemError, build_system,
                              symmetric, triplet, twin, universal)
from smallcox.matrices import Matrix, identity_rows
from smallcox.tits import (alpha, evaluate, evaluate_mod, generator_matrix,
                           order_check_2m, pair_product_formula,
                           pair_product_square_formula, pm_coefficients,
                           row_tables, twin_power_matrix)

SMALL_FAMILIES = (twin, triplet, symmetric, universal)


def product_of_generators(system, word):
    """Oracle: plain matrix products, independent of the column-update
    evaluation path."""
    mats = [generator_matrix(system, k) for k in range(1, system.rank + 1)]
    return reduce(lambda acc, letter: acc * mats[letter - 1], word,
                  Matrix.identity(system.rank))


class TestAlpha:
    def test_bond_three(self):
        assert alpha(symmetric(4), 1, 2) == 1

    def test_bond_two(self):
        assert alpha(twin(4), 1, 3) == 0

    def test_diagonal(self):
        assert alpha(twin(4), 1, 1) == -1

    def test_infinite_bond(self):
        assert alpha(twin(4), 1, 2) == 2

    def test_symmetric_in_arguments(self):
        for system in (twin(5), triplet(5), symmetric(5)):
            for i in range(1, 5):
                for j in range(1, 5):
                    assert alpha(system, i, j) == alpha(system, j, i)

    def test_non_small_rejected(self):
        with pytest.raises(NonSmallSystemError):
            alpha(build_system([[1, 4], [4, 1]]), 1, 2)

    @pytest.mark.parametrize("k, j", [(0, 1), (1, 4), (4, 4)])
    def test_indices_out_of_range(self, k, j):
        with pytest.raises(ValueError, match=rf"^indices \({k},{j}\) "
                                             r"outside 1\.\.3$"):
            alpha(twin(4), k, j)


def twin_block_matrix(n, i):
    """The twin generator matrices transcribed from their block form:
    a single 2 next to the -1 at each end, two 2s in the middle."""
    r = n - 1
    rows = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
    row = [0] * r
    row[i - 1] = -1
    if i - 2 >= 0:
        row[i - 2] = 2
    if i <= r - 1:
        row[i] = 2
    rows[i - 1] = row
    return Matrix(tuple(map(tuple, rows)))


def triplet_block_matrix(n, i):
    """The triplet generator matrices transcribed from their block form:
    1s adjacent to the -1, and rows of 2s filling the rest of row i."""
    r = n - 1
    rows = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
    row = [2] * r
    row[i - 1] = -1
    if i - 2 >= 0:
        row[i - 2] = 1
    if i <= r - 1:
        row[i] = 1
    rows[i - 1] = row
    return Matrix(tuple(map(tuple, rows)))


class TestGeneratorMatrix:
    def test_twin_first_generator(self):
        assert generator_matrix(twin(4), 1).rows == \
            ((-1, 2, 0), (0, 1, 0), (0, 0, 1))

    def test_triplet_first_generator(self):
        assert generator_matrix(triplet(4), 1).rows == \
            ((-1, 1, 2), (0, 1, 0), (0, 0, 1))

    def test_symmetric_rank_two(self):
        assert generator_matrix(symmetric(3), 2).rows == ((1, 0), (1, -1))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_matches_block_transcription(self, n):
        for i in range(1, n):
            assert generator_matrix(twin(n), i) == twin_block_matrix(n, i)
            assert generator_matrix(triplet(n), i) == triplet_block_matrix(n, i)

    @pytest.mark.parametrize("family", SMALL_FAMILIES)
    @pytest.mark.parametrize("n", range(2, 10))
    def test_involution(self, family, n):
        system = family(n)
        ident = Matrix.identity(system.rank)
        for k in range(1, system.rank + 1):
            mat = generator_matrix(system, k)
            assert mat * mat == ident

    @pytest.mark.parametrize("family", SMALL_FAMILIES)
    @pytest.mark.parametrize("n", range(2, 8))
    def test_defining_relations(self, family, n):
        system = family(n)
        ident = Matrix.identity(system.rank)
        for i in range(1, system.rank + 1):
            for j in range(i + 1, system.rank + 1):
                m = system.exponent(i, j)
                if m is INF:
                    continue
                prod = generator_matrix(system, i) * generator_matrix(system, j)
                assert prod ** m == ident

    def test_non_small_rejected(self):
        with pytest.raises(NonSmallSystemError):
            generator_matrix(build_system([[1, 5], [5, 1]]), 1)

    @pytest.mark.parametrize("k", [0, 4])
    def test_index_out_of_range(self, k):
        with pytest.raises(ValueError, match=rf"^generator index {k} "
                                             r"outside 1\.\.3$"):
            generator_matrix(twin(4), k)


class TestEvaluate:
    def test_twin_rank_two_power(self):
        assert evaluate(twin(3), (1, 2, 1, 2)).rows == ((5, -4), (4, -3))

    def test_empty_word(self):
        assert evaluate(twin(4), ()).is_identity()

    def test_cube_of_pair(self):
        expected = product_of_generators(twin(4), (1, 2) * 3)
        assert expected.rows == ((7, -6, 24), (6, -5, 18), (0, 0, 1))
        assert evaluate(twin(4), (1, 2) * 3) == expected

    @settings(max_examples=80)
    @given(st.integers(3, 6), st.lists(st.integers(1, 5), max_size=24),
           st.sampled_from(SMALL_FAMILIES))
    def test_matches_product_oracle(self, n, letters, family):
        system = family(n)
        word = tuple(1 + (x - 1) % system.rank for x in letters)
        assert evaluate(system, word) == product_of_generators(system, word)

    @settings(max_examples=60)
    @given(st.integers(3, 6), st.lists(st.integers(1, 5), max_size=24),
           st.integers(2, 30), st.sampled_from(SMALL_FAMILIES))
    def test_mod_matches_exact_reduction(self, n, letters, m, family):
        system = family(n)
        word = tuple(1 + (x - 1) % system.rank for x in letters)
        assert evaluate_mod(system, word, m) == evaluate(system, word).reduce(m)

    def test_determinant_parity(self):
        rng = random.Random(4)
        for system in (twin(5), triplet(4), symmetric(4)):
            for _ in range(200):
                word = tuple(rng.randrange(1, system.rank + 1)
                             for _ in range(rng.randrange(0, 20)))
                assert evaluate(system, word).det() == (-1) ** len(word)


class TestEvaluateMod:
    def test_sixth_power_trivial_mod_six(self):
        assert evaluate_mod(twin(4), (1, 2) * 3, 6).is_identity()

    def test_single_letter_not_trivial_mod_three(self):
        assert not evaluate_mod(twin(4), (1,), 3).is_identity()

    def test_empty_word(self):
        assert evaluate_mod(symmetric(5), (), 7).is_identity()

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            evaluate_mod(twin(4), (1,), 1)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_pair_never_trivial(self, n):
        # the image of s_1 s_2 is a nonidentity matrix mod every m >= 3
        for m in range(3, 31):
            assert not evaluate_mod(twin(n), (1, 2), m).is_identity()


class TestGeneratorStep:
    @pytest.mark.parametrize("family", SMALL_FAMILIES)
    @pytest.mark.parametrize("m", (2, 3, 12))
    def test_matches_product_oracle(self, family, m):
        # the modular map's step over the row tables against plain
        # products, on random words, in both encodings: ids decode
        # through the row list to the product's rows
        system = family(5)
        qmap = quotient_map(system, "modular", m)
        rows, one, step = qmap.rows, qmap.identity_image, qmap.step
        assert rows[:4] == list(identity_rows(4))
        assert tuple(one) == tuple(range(4))
        rng = random.Random(m)
        for _ in range(30):
            word = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(12)))
            ids = one
            for letter in word:
                ids = step(ids, letter - 1)
            assert tuple(rows[i] for i in ids) == \
                evaluate_mod(system, word, m).rows
            for k in range(1, 5):
                expected = product_of_generators(system, word + (k,)).reduce(m)
                assert tuple(rows[i] for i in step(ids, k - 1)) == \
                    expected.rows
        # interned: each row is listed once
        assert len(set(rows)) == len(rows)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            row_tables(twin(4), 1)

    def test_row_tables_fill_lazily(self):
        # the identity rows, and no product until a table is read
        rows, tables = row_tables(twin(4), 5)
        assert rows == list(identity_rows(3))
        assert len(tables) == 3 and not any(tables)
        # e_1 times s_1 is row 1 of s_1 mod 5, interned once
        assert rows[tables[0][0]] == (4, 2, 0)
        assert tables[0][0] == 3 and len(rows) == 4
        # e_2 has a zero in column 1, so s_1 leaves it as it is
        assert tables[0][1] == 1 and len(rows) == 4


class TestPairProductFormulas:
    def test_twin_adjacent_pair(self):
        assert pair_product_formula(twin(4), 1, 2).rows == \
            ((3, -2, 4), (2, -1, 2), (0, 0, 1))

    def test_twin_commuting_pair(self):
        mat = pair_product_formula(twin(4), 1, 3)
        assert mat.rows[0][2] == 0
        assert mat == generator_matrix(twin(4), 1) * generator_matrix(twin(4), 3)

    def test_triplet_adjacent_pair(self):
        expected = generator_matrix(triplet(4), 1) * generator_matrix(triplet(4), 2)
        assert pair_product_formula(triplet(4), 1, 2) == expected

    def test_square_of_twin_pair(self):
        assert pair_product_square_formula(twin(4), 1, 2).rows == \
            ((5, -4, 12), (4, -3, 8), (0, 0, 1))

    def test_square_diagonal_entry_bond_three(self):
        # with coupling 1 the new diagonal entry is 1 - 3 + 1 = -1
        mat = pair_product_square_formula(symmetric(3), 1, 2)
        assert mat.rows[0][0] == -1

    def test_square_of_commuting_pair(self):
        assert pair_product_square_formula(twin(4), 1, 3).is_identity()

    @pytest.mark.parametrize("family", SMALL_FAMILIES)
    @pytest.mark.parametrize("n", range(3, 8))
    def test_formulas_against_multiplication(self, family, n):
        system = family(n)
        for k in range(1, system.rank + 1):
            for l in range(1, system.rank + 1):
                if k == l:
                    continue
                prod = generator_matrix(system, k) * generator_matrix(system, l)
                assert pair_product_formula(system, k, l) == prod
                assert pair_product_square_formula(system, k, l) == prod * prod

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            pair_product_formula(twin(4), 2, 2)
        with pytest.raises(ValueError):
            pair_product_square_formula(twin(4), 2, 2)


def remainder_mod_cubed(m):
    """Oracle: coefficients of (Y^m - 1) mod (Y-1)^3 by long division."""
    poly = [0] * (m + 1)
    poly[m] = 1
    poly[0] = -1
    divisor = (-1, 3, -3, 1)
    for deg in range(m, 2, -1):
        lead = poly[deg]
        if lead:
            for t in range(4):
                poly[deg - 3 + t] -= lead * divisor[t]
    return poly[2], poly[1], poly[0]


class TestPmCoefficients:
    def test_base_case(self):
        assert pm_coefficients(3) == (3, -3, 0)

    def test_m_four(self):
        assert remainder_mod_cubed(4) == (6, -8, 2)
        assert pm_coefficients(4) == (6, -8, 2)

    def test_m_five(self):
        assert remainder_mod_cubed(5) == (10, -15, 5)
        assert pm_coefficients(5) == (10, -15, 5)

    @pytest.mark.parametrize("m", range(3, 51))
    def test_matches_division_oracle(self, m):
        assert pm_coefficients(m) == remainder_mod_cubed(m)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            pm_coefficients(2)


class TestOrderCheck:
    def test_examples(self):
        assert order_check_2m(4, 2, 1)
        assert order_check_2m(5, 3, 2)
        assert order_check_2m(4, 7, 1)

    def test_oracle_by_exact_power(self):
        # reduce the exact integer power instead of exponentiating mod 2m
        for (n, m, i) in ((4, 2, 1), (5, 3, 2), (4, 7, 1), (6, 5, 3)):
            exact = evaluate(twin(n), (i, i + 1) * m)
            assert exact.reduce(2 * m).is_identity() == order_check_2m(n, m, i)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_always_true(self, n):
        for m in range(2, 13):
            for i in range(1, n - 1):
                assert order_check_2m(n, m, i)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            order_check_2m(4, 3, 3)

    def test_bad_m(self):
        with pytest.raises(ValueError, match="^need m >= 2, got 1$"):
            order_check_2m(4, 1, 1)


class TestTwinPowerMatrix:
    def test_zeroth_power(self):
        assert twin_power_matrix(0).is_identity()

    def test_first_power(self):
        assert twin_power_matrix(1).rows == ((3, -2), (2, -1))

    def test_second_power(self):
        assert twin_power_matrix(2).rows == ((5, -4), (4, -3))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="^negative power$"):
            twin_power_matrix(-1)

    def test_closed_form_up_to_200(self):
        system = twin(3)
        for k in range(0, 201):
            assert twin_power_matrix(k) == evaluate(system, (1, 2) * k)
