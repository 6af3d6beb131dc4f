import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from smallcox.matrices import (Matrix, dense_rows, det_rows, format_matrix,
                               mul_columns, mul_rows, parse_matrix, pow_rows,
                               smith_normal_form, transpose)


class TestIntMatrix:
    def test_identity_and_multiplication(self):
        a = Matrix(((1, 2), (3, 4)))
        assert a * Matrix.identity(2) == a
        assert (a * a).rows == ((7, 10), (15, 22))

    def test_power(self):
        a = Matrix(((1, 1), (0, 1)))
        assert (a ** 5).rows == ((1, 5), (0, 1))
        assert (a ** 0).is_identity()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Matrix.identity(2) ** -1

    def test_mod_reduction(self):
        a = Matrix(((5, -4), (4, -3)))
        assert a.reduce(3).rows == ((2, 2), (1, 0))

    def test_equal_matrices_hash_alike_and_dedupe(self):
        built = Matrix([[1, 2], [3, 4]])
        frozen = Matrix(((1, 2), (3, 4)))
        assert built == frozen and hash(built) == hash(frozen)
        reduced = Matrix(((6, 2), (3, 4)), 5)
        assert reduced == Matrix(((1, 2), (3, 4)), 5) != built
        assert len({built, frozen, reduced,
                    Matrix(((1, 2), (3, 4)), 5)}) == 2
        assert built != built.rows

    @pytest.mark.parametrize("field", ["rows", "modulus"])
    def test_fields_are_read_only(self, field):
        mat = Matrix.identity(2, 3)
        with pytest.raises(AttributeError):
            setattr(mat, field, None)
        assert mat == Matrix.identity(2, 3)

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_det_matches_fraction_elimination(self, rows):
        expected = _det_fraction(rows)
        assert det_rows(tuple(map(tuple, rows))) == expected

    def test_det_of_the_empty_matrix_is_one(self):
        assert det_rows(()) == 1

    @given(st.data(), st.integers(1, 4), st.integers(2, 12), st.booleans())
    def test_product_matches_index_sums(self, data, d, m, sparse):
        # sparse: mostly zero entries, as in the holonomy tree products
        entry = st.sampled_from((0,) * 6 + (1, -1, 2, -7)) if sparse \
            else st.integers(-9, 9)
        square = st.lists(st.lists(entry, min_size=d,
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

    @pytest.mark.parametrize("seed", range(6))
    def test_product_matches_triple_loop(self, seed):
        # seeded rectangular factors up to 30 wide, mostly zero in the
        # sparse half as the holonomy tree products are, each checked
        # with and without a modulus
        rng = random.Random(seed)
        rows, inner, cols = (rng.randint(1, 30) for _ in range(3))
        zero_share = 0.9 if seed % 2 else 0.0

        def draw(r, c):
            return tuple(tuple(0 if rng.random() < zero_share
                               else rng.randint(-50, 50) for _ in range(c))
                         for _ in range(r))

        a, b = draw(rows, inner), draw(inner, cols)
        expected = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                for p in range(inner):
                    expected[i][j] += a[i][p] * b[p][j]
        assert mul_rows(a, b) == tuple(map(tuple, expected))
        for m in (2, 7, 1000):
            assert mul_rows(a, b, m) == tuple(
                tuple(e % m for e in row) for row in expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_column_product_matches_the_row_product(self, seed):
        # the same seeded factors as sparse {row: value} columns, zero
        # entries left out of the factors and of the product
        rng = random.Random(seed)
        rows, inner, cols = (rng.randint(1, 30) for _ in range(3))
        zero_share = 0.9 if seed % 2 else 0.3

        def draw(r, c):
            return tuple(tuple(0 if rng.random() < zero_share
                               else rng.randint(-3, 3) for _ in range(c))
                         for _ in range(r))

        def columns(m):
            return [{i: x for i, x in enumerate(col) if x}
                    for col in zip(*m)]

        a, b = draw(rows, inner), draw(inner, cols)
        assert mul_columns(columns(a), columns(b)) == \
            columns(mul_rows(a, b))
        # the dense view and the transpose of the same columns
        assert dense_rows(columns(a), rows) == a
        assert transpose(columns(a), rows) == columns(tuple(zip(*a)))
        assert transpose(transpose(columns(a), rows), inner) == columns(a)
        # a as a dict that holds only the columns that b reads
        needed = {i: columns(a)[i] for col in columns(b) for i in col}
        assert mul_columns(needed, columns(b)) == columns(mul_rows(a, b))

    def test_column_product_of_involutions_is_the_identity(self):
        swap = [{1: 1}, {0: 1}]
        flip = [{0: -1}, {1: 1}]
        assert mul_columns(swap, swap) == mul_columns(flip, flip) == \
            [{0: 1}, {1: 1}]
        assert mul_columns(swap, flip) == [{1: -1}, {0: 1}]
        assert mul_columns(flip, swap) == [{1: 1}, {0: -1}]
        assert mul_columns([], []) == []

    def test_text_round_trip(self):
        a = Matrix(((7, -6, 24), (6, -5, 18), (0, 0, 1)))
        assert parse_matrix(format_matrix(a.rows)) == a

    def test_mod_text_round_trip(self):
        a = Matrix(((1, 2), (0, 1)), 5)
        assert parse_matrix(str(a)) == a

    def test_every_row_ends_in_a_newline(self):
        assert format_matrix(((1, -2), (0, 3))) == "1 -2\n0 3\n"
        assert format_matrix(()) == ""
        assert parse_matrix(format_matrix(())) == Matrix(())


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
        a = Matrix(((-1, 7), (3, 4)), 5)
        assert a.rows == ((4, 2), (3, 4))
        assert Matrix(((7,),), 5).rows == ((2,),)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            Matrix.identity(2, 3) * Matrix.identity(2, 5)

    @pytest.mark.parametrize("left, right", [(None, 5), (5, None), (3, 6)])
    def test_product_needs_equal_moduli(self, left, right):
        # an integer matrix times one mod m is no longer silently exact
        with pytest.raises(ValueError, match="modulus mismatch"):
            Matrix.identity(2, left) * Matrix.identity(2, right)

    def test_reduce_needs_divisor(self):
        with pytest.raises(ValueError):
            Matrix.identity(2, 6).reduce(4)

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            Matrix.identity(2, 1)

    def test_reduce_to_modulus_one_rejected(self):
        with pytest.raises(ValueError):
            Matrix(((4,),), 4).reduce(1)


class TestSmithNormalForm:
    def test_textbook_example(self):
        sm = smith_normal_form(_pairs([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]), 3)
        assert sm.divisors == (2, 6, 12)

    def test_divisibility_chain(self):
        rng = random.Random(7)
        for _ in range(50):
            nr = rng.randrange(1, 5)
            nc = rng.randrange(1, 5)
            rows = [[rng.randrange(-6, 7) for _ in range(nc)]
                    for _ in range(nr)]
            sm = smith_normal_form(_pairs(rows), nc)
            for a, b in zip(sm.divisors, sm.divisors[1:]):
                assert b % a == 0

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_transform_diagonalizes(self, nr, nc, data):
        rows = [[data.draw(st.integers(-5, 5)) for _ in range(nc)]
                for _ in range(nr)]
        sm = smith_normal_form(_pairs(rows), nc, want_transform=True)
        _check_transform(rows, sm)

    def test_rank_and_torsion_of_known_quotient(self):
        # Z^3 / <(2,0,0), (0,3,0)> is Z_6 + Z after the chain repair
        sm = smith_normal_form(_pairs([[2, 0, 0], [0, 3, 0]]), 3)
        assert sm.torsion == (6,)
        assert len(sm.free_columns) == 1

    def test_unimodular_det_of_transform(self):
        rng = random.Random(11)
        for _ in range(20):
            nc = rng.randrange(1, 5)
            rows = [[rng.randrange(-4, 5) for _ in range(nc)]
                    for _ in range(rng.randrange(1, 5))]
            sm = smith_normal_form(_pairs(rows), nc, want_transform=True)
            assert det_rows(sm.v) in (1, -1)

    @settings(max_examples=150)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_divisors_match_determinantal_divisors(self, nr, nc, data):
        rows = [[data.draw(st.integers(-6, 6)) for _ in range(nc)]
                for _ in range(nr)]
        assert smith_normal_form(_pairs(rows), nc).divisors == \
            _determinantal_divisors(rows)

    def test_sparse_transform_with_non_unit_steps(self):
        # entries from {0, 0, 0, +-1, +-2, 3}: unit pivots first, then
        # Euclid steps and divisibility folds on what is left; the 6-row
        # matrices leave at least four free columns, and some of them
        # were pivots that a Euclid step demoted
        rng = random.Random(5)
        entries = (0, 0, 0, 1, -1, 2, -2, 3)
        demoted = 0
        for nr in [12] * 40 + [6] * 20:
            rows = [[rng.choice(entries) for _ in range(10)]
                    for _ in range(nr)]
            sm = smith_normal_form(_pairs(rows), 10, want_transform=True)
            demoted += _check_transform(rows, sm)
            assert sm.divisors == smith_normal_form(_pairs(rows), 10).divisors
        assert demoted > 0

    def test_demoted_free_column_keeps_its_row_of_v_inverse(self):
        # (2 3): a Euclid step makes column 1 the pivot and leaves column
        # 0 free, and no single column maps to the free generator
        sm = smith_normal_form(_pairs([[2, 3]]), 2, want_transform=True)
        assert (sm.divisors, sm.order) == ((1,), (1, 0))
        assert sm.free_rows == ({0: 1, 1: 1},)
        assert sm.v == ((-1, 3), (1, -2))

    def test_dense_view_only_with_transform(self):
        rows = _pairs([[2, 4, 4], [-6, 6, 12]])
        bare = smith_normal_form(rows, 3)
        assert (bare.v, bare.columns, bare.order, bare.free_rows) == \
            (None, None, None, None)
        sm = smith_normal_form(rows, 3, want_transform=True)
        # V's rows, read off its sparse columns
        assert sm.v == tuple(tuple(col.get(t, 0) for col in sm.columns)
                             for t in range(3))

    def test_rows_left_unchanged(self):
        rows = _pairs([[2, 4, 4], [-6, 6, 12], [10, -4, -16], [0, 1, -1]])
        before = [list(row) for row in rows]
        smith_normal_form(rows, 3, want_transform=True)
        smith_normal_form(rows, 3)
        assert rows == before

    def test_sparse_rows_match_dense_rows(self):
        # dict rows without their zeros give the same form, transform
        # included, as the dense rows with their zeros as pairs
        rng = random.Random(13)
        for _ in range(30):
            rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(8)]
                    for _ in range(rng.randrange(1, 10))]
            sparse = [{j: e for j, e in enumerate(row) if e}.items()
                      for row in rows]
            assert smith_normal_form(sparse, 8, want_transform=True) == \
                smith_normal_form(_pairs(rows), 8, want_transform=True)


def _check_transform(rows, sm):
    """The transform contract, read through the dense view of V: V is
    unimodular, A V vanishes on the free columns, ``columns`` and
    ``order`` match the view, and ``free_rows[i]`` times V is e_i, so a
    unit ``{order[i]: 1}`` means row order[i] of V is e_i.  Returns how
    many free rows are not unit rows."""
    nc = sm.ncols
    v = sm.v
    assert det_rows(v) in (1, -1)
    assert sorted(sm.order) == list(range(nc))
    assert [{t: v[t][i] for t in range(nc) if v[t][i]} for i in range(nc)] \
        == list(sm.columns)
    for row in _mat_mul(rows, v):
        assert all(row[j] == 0 for j in sm.free_columns)
    assert len(sm.free_rows) == len(sm.free_columns)
    for i, lift in zip(sm.free_columns, sm.free_rows):
        assert [sum(x * v[t][j] for t, x in lift.items())
                for j in range(nc)] == _identity(nc)[i]
    return sum(lift != {sm.order[i]: 1}
               for i, lift in zip(sm.free_columns, sm.free_rows))


def _pairs(rows):
    """Dense rows as the (column, value) pairs the Smith form reads."""
    return [list(enumerate(row)) for row in rows]


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
