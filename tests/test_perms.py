import itertools

from smallcox.perms import identity, multiply


def test_multiply_is_apply_p_then_q():
    # the composition i -> q(p(i)), over every pair in S_4 x S_4
    s4 = list(itertools.permutations(range(4)))
    for p in s4:
        for q in s4:
            product = multiply(p, q)
            assert type(product) is tuple
            assert product == tuple(q[p[i]] for i in range(4))
    assert all(multiply(p, identity(4)) == p == multiply(identity(4), p)
               for p in s4)
