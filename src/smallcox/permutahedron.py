"""Permutahedron 1-skeleton combinatorics and the free rank of the
pure triplet group.

Vertices are the permutations of (1..n); two are adjacent when they
differ by swapping a pair of adjacent positions, which makes the graph
the Cayley graph of S_n on adjacent transpositions: n! vertices,
n!(n-1)/2 edges, (n-1)-regular.

Closed walks of interest come in two kinds.  Braid moves at positions
(k, k+1, k+2) close up in six steps, and each hexagonal orbit is counted
once through its lexicographically least vertex, the one whose entries
at those three positions increase; there are n!(n-2)/6 hexagons.
Commuting moves at positions (i, i+1) and (j, j+1) with j - i >= 2 close
up in four steps and are counted the same way, giving
n!(n-2)(n-3)/8 squares.

Attaching a 2-cell along every hexagon yields a complex whose Euler
characteristic V - E + F6 equals -n!(2n-7)/6, and the pure triplet
group on n strands is free of rank 1 - chi = 1 + n!(2n-7)/6 for n >= 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

MAX_STRANDS = 8  # 8! = 40320 vertices


@dataclass(frozen=True)
class FaceCensus:
    n: int
    vertices: int
    edges: int
    hexagons: int
    squares: int

    @property
    def euler_characteristic(self) -> int:
        """chi of the complex with 2-cells on the hexagons only."""
        return self.vertices - self.edges + self.hexagons

    @property
    def rank(self) -> int:
        return 1 - self.euler_characteristic

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "V": self.vertices,
            "E": self.edges,
            "F6": self.hexagons,
            "F4": self.squares,
            "chi": self.euler_characteristic,
            "rank": self.rank,
        }


def face_census(n: int) -> FaceCensus:
    """Count vertices, edges, hexagons and squares by direct enumeration.

    Each edge {v, v.(k k+1)} is counted once, at its endpoint with
    v[k] < v[k+1], the same way the 2-cells are counted.
    """
    if not 3 <= n <= MAX_STRANDS:
        raise ValueError(f"need 3 <= n <= {MAX_STRANDS}, got {n}")
    vertices = edges = hexagons = squares = 0
    for v in permutations(range(1, n + 1)):
        vertices += 1
        for k in range(n - 2):
            if v[k] < v[k + 1] < v[k + 2]:
                hexagons += 1
        for i in range(n - 1):
            if v[i] < v[i + 1]:
                edges += 1
                for j in range(i + 2, n - 1):
                    if v[j] < v[j + 1]:
                        squares += 1
    return FaceCensus(n, vertices, edges, hexagons, squares)


def pl_rank(n: int) -> int:
    """Free rank of the pure triplet group on n strands.

    Computed from the Euler characteristic of the hexagon complex for
    n up to 8, and from the resulting closed form n!(2n-7)/6 + 1 beyond
    the enumeration range.  Returns 0 for n = 3 (the pure group there is
    trivial).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n <= MAX_STRANDS:
        return face_census(n).rank
    return 1 + math.factorial(n) * (2 * n - 7) // 6
