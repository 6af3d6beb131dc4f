"""Tuple-encoded permutations of range(n).

``multiply(p, q)`` means "apply p, then q", which matches the
left-to-right order used for matrix images of words: the image of a
concatenated word is the fold of ``multiply`` over its letters.
"""

from __future__ import annotations

import itertools

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def adjacent_transposition(n: int, i: int) -> Perm:
    """Swap i and i+1 (1-based), fixing everything else."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index {i} outside 1..{n - 1}")
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def multiply(p: Perm, q: Perm) -> Perm:
    return tuple(q[p[i]] for i in range(len(p)))


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


def alternating(n: int) -> frozenset[Perm]:
    return frozenset(p for p in itertools.permutations(range(n)) if is_even(p))
