"""Permutations of range(n), as sequences of ints.

A permutation p sends i to p[i].  The ``symmetric`` quotient map of
:mod:`smallcox.congruence` builds its generators from
``adjacent_transposition``: p times q is "apply p, then q", the
permutation i -> q[p[i]], which matches the left-to-right order used
for matrix images of words.  ``is_even`` reads any sequence of ints,
so it reads that map's images as they are.  No group is listed here,
since ``congruence.orbit`` enumerates every finite group.
"""

from __future__ import annotations

Perm = tuple[int, ...]


def adjacent_transposition(n: int, i: int) -> Perm:
    """Swap i and i+1 (1-based), fixing everything else."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index {i} outside 1..{n - 1}")
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def is_even(p: Perm) -> bool:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity == 0
