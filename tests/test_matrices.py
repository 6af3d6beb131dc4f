import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from smallcox.matrices import (IntMatrix, ModMatrix, det_rows, format_matrix,
                               mul_rows, parse_matrix, pow_rows,
                               smith_normal_form)


class TestIntMatrix:
    def test_identity_and_multiplication(self):
        a = IntMatrix(((1, 2), (3, 4)))
        assert a * IntMatrix.identity(2) == a
        assert (a * a).rows == ((7, 10), (15, 22))

    def test_power(self):
        a = IntMatrix(((1, 1), (0, 1)))
        assert (a ** 5).rows == ((1, 5), (0, 1))
        assert (a ** 0).is_identity()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2) ** -1

    def test_mod_reduction(self):
        a = IntMatrix(((5, -4), (4, -3)))
        assert a.mod(3).rows == ((2, 2), (1, 0))

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_det_matches_fraction_elimination(self, rows):
        expected = _det_fraction(rows)
        assert det_rows(tuple(map(tuple, rows))) == expected

    @given(st.data(), st.integers(1, 4), st.integers(2, 12))
    def test_product_matches_index_sums(self, data, d, m):
        square = st.lists(st.lists(st.integers(-9, 9), min_size=d,
                                   max_size=d), min_size=d, max_size=d)
        a, b = data.draw(square), data.draw(square)
        expected = tuple(tuple(sum(a[i][p] * b[p][j] for p in range(d))
                               for j in range(d)) for i in range(d))
        a, b = tuple(map(tuple, a)), tuple(map(tuple, b))
        assert mul_rows(a, b) == expected
        assert mul_rows(a, b, m) == tuple(tuple(e % m for e in row)
                                          for row in expected)
        repeated = tuple(tuple(1 if i == j else 0 for j in range(d))
                         for i in range(d))
        for k in range(4):
            assert pow_rows(a, k, m) == tuple(
                tuple(e % m for e in row) for row in repeated)
            repeated = mul_rows(repeated, a)

    def test_text_round_trip(self):
        a = IntMatrix(((7, -6, 24), (6, -5, 18), (0, 0, 1)))
        assert parse_matrix(format_matrix(a.rows)) == a

    def test_mod_text_round_trip(self):
        a = ModMatrix(((1, 2), (0, 1)), 5)
        assert parse_matrix(str(a)) == a


def _det_fraction(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col]:
                factor = a[i][col] * inv
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    assert det.denominator == 1
    return int(det)


class TestModMatrix:
    def test_entries_reduced(self):
        a = ModMatrix(((-1, 7), (3, 4)), 5)
        assert a.rows == ((4, 2), (3, 4))

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            ModMatrix.identity(2, 3) * ModMatrix.identity(2, 5)

    def test_reduce_needs_divisor(self):
        with pytest.raises(ValueError):
            ModMatrix.identity(2, 6).reduce(4)

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            ModMatrix.identity(2, 1)


class TestSmithNormalForm:
    def test_textbook_example(self):
        sm = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], 3)
        assert sm.divisors == (2, 6, 12)

    def test_divisibility_chain(self):
        rng = random.Random(7)
        for _ in range(50):
            nr = rng.randrange(1, 5)
            nc = rng.randrange(1, 5)
            rows = [[rng.randrange(-6, 7) for _ in range(nc)]
                    for _ in range(nr)]
            sm = smith_normal_form(rows, nc)
            for a, b in zip(sm.divisors, sm.divisors[1:]):
                assert b % a == 0

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_transform_diagonalizes(self, nr, nc, data):
        rows = [[data.draw(st.integers(-5, 5)) for _ in range(nc)]
                for _ in range(nr)]
        sm = smith_normal_form(rows, nc, want_transform=True)
        # V * V^-1 = identity
        prod = _mat_mul(sm.v, sm.v_inv)
        assert prod == _identity(nc)
        # A * V has pivots in the leading columns and zero free columns,
        # with the column lattice unchanged: check rank via determinantal
        # rank of A*V restricted to pivot columns
        av = _mat_mul(rows, sm.v)
        for row in av:
            for j in sm.free_columns:
                assert row[j] == 0

    def test_rank_and_torsion_of_known_quotient(self):
        # Z^3 / <(2,0,0), (0,3,0)> is Z_6 + Z after the chain repair
        sm = smith_normal_form([[2, 0, 0], [0, 3, 0]], 3)
        assert sm.torsion == (6,)
        assert len(sm.free_columns) == 1

    def test_unimodular_det_of_transform(self):
        rng = random.Random(11)
        for _ in range(20):
            nc = rng.randrange(1, 5)
            rows = [[rng.randrange(-4, 5) for _ in range(nc)]
                    for _ in range(rng.randrange(1, 5))]
            sm = smith_normal_form(rows, nc, want_transform=True)
            assert det_rows(sm.v) in (1, -1)

    @settings(max_examples=150)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_divisors_match_determinantal_divisors(self, nr, nc, data):
        rows = [[data.draw(st.integers(-6, 6)) for _ in range(nc)]
                for _ in range(nr)]
        assert smith_normal_form(rows, nc).divisors == \
            _determinantal_divisors(rows)

    def test_sparse_transform_with_non_unit_steps(self):
        # entries from {0, 0, 0, +-1, +-2, 3}: unit pivots first, then
        # Euclid steps and divisibility folds on what is left; the 6-row
        # matrices leave at least four free columns
        rng = random.Random(5)
        entries = (0, 0, 0, 1, -1, 2, -2, 3)
        for nr in [12] * 40 + [6] * 20:
            rows = [[rng.choice(entries) for _ in range(10)]
                    for _ in range(nr)]
            sm = smith_normal_form(rows, 10, want_transform=True)
            assert _mat_mul(sm.v, sm.v_inv) == _identity(10)
            assert det_rows(sm.v) in (1, -1)
            for row in _mat_mul(rows, sm.v):
                assert all(row[j] == 0 for j in sm.free_columns)
            assert sm.divisors == smith_normal_form(rows, 10).divisors

    def test_rows_left_unchanged(self):
        rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16], [0, 1, -1]]
        before = [list(row) for row in rows]
        smith_normal_form(rows, 3, want_transform=True)
        smith_normal_form(rows, 3)
        assert rows == before


def _determinantal_divisors(rows):
    """d_k = g_k / g_(k-1), g_k the gcd of all k x k minors, for each k
    up to the rank."""
    nr, nc = len(rows), len(rows[0])
    out, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                g = math.gcd(g, det_rows(tuple(tuple(rows[i][j] for j in ci)
                                               for i in ri)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def _mat_mul(a, b):
    n = len(a)
    k = len(b)
    m = len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
