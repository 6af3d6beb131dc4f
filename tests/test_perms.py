import itertools

import pytest

from smallcox.congruence import quotient_map
from smallcox.coxeter import symmetric, twin
from smallcox.perms import adjacent_transposition


def identity(n):
    """Reference: the identity permutation of range(n), as a tuple."""
    return tuple(range(n))


def multiply(p, q):
    """Reference: "apply p, then q", the permutation i -> q[p[i]]."""
    return tuple(map(q.__getitem__, p))


def test_multiply_is_apply_p_then_q():
    # the composition i -> q(p(i)), over every pair in S_4 x S_4; p as
    # bytes translated by q's 256-byte table is the same product
    s4 = list(itertools.permutations(range(4)))
    pad = bytes(range(4, 256))
    for p in s4:
        for q in s4:
            product = multiply(p, q)
            assert type(product) is tuple
            assert product == tuple(q[p[i]] for i in range(4))
            assert bytes(p).translate(bytes(q) + pad) == bytes(product)
    assert all(multiply(p, identity(4)) == p == multiply(identity(4), p)
               for p in s4)


def test_symmetric_map_folds_multiply():
    # the image of a word is the fold of multiply over its transpositions
    qmap = quotient_map(symmetric(5), "symmetric")
    assert qmap.identity_image == bytes(identity(5))
    for length in range(5):
        for word in itertools.product(range(1, 5), repeat=length):
            expected = identity(5)
            for letter in word:
                expected = multiply(expected, adjacent_transposition(5, letter))
            assert qmap.image_of_word(word) == bytes(expected)


def test_symmetric_map_has_at_most_256_points():
    qmap = quotient_map(twin(256), "symmetric")
    assert tuple(qmap.image_of_word((255,)))[-3:] == (253, 255, 254)
    with pytest.raises(ValueError, match="at most 256 points, got 257"):
        quotient_map(twin(257), "symmetric")
