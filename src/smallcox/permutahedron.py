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
n!(n-2)(n-3)/8 squares.  An edge {v, v.(k k+1)} is likewise counted at
its endpoint with v[k] < v[k+1].  So every face count is a count of
ascent patterns over all permutations: E counts ascents, F6 double
ascents and F4 pairs of ascents at least two positions apart.

``face_census`` gets these counts exactly without listing the
permutations.  A permutation is built position by position, and each
new entry is recorded by its relative rank s among the entries placed
so far; every permutation has exactly one such rank sequence.  The new
entry sits above the previous one exactly when s exceeds the previous
entry's rank r, so a transfer count over the states (r, last step was
an ascent) carries the number of prefixes and their ascent, double
ascent and ascent-pair totals.  The cost is O(n^3) instead of
O(n! n^2), and no closed form enters the count.

Attaching a 2-cell along every hexagon yields a complex whose Euler
characteristic V - E + F6 equals -n!(2n-7)/6, and the pure triplet
group on n strands is free of rank 1 - chi = 1 + n!(2n-7)/6 for n >= 4.
"""

from __future__ import annotations

from typing import NamedTuple

MAX_STRANDS = 20  # 20! ~ 2.4e18 vertices, counted in milliseconds


class FaceCensus(NamedTuple):
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
    """Count vertices, edges, hexagons and squares by a transfer count
    over relative ranks.

    After k entries are placed, ``sums[b][r]`` holds, over the prefixes
    whose last entry has rank r among them and whose last step was an
    ascent exactly when b, four totals: the number of prefixes N, their
    ascents A, double ascents F6, and pairs of ascents at least two
    apart F4.  Placing the next entry at relative rank s in 0..k is an
    ascent exactly when s > r; an ascent adds one to A, completes a
    double ascent when b holds, and pairs with every earlier ascent but
    the one just before it.  At length n the four totals are V, E, F6
    and F4.
    """
    if not 3 <= n <= MAX_STRANDS:
        raise ValueError(f"need 3 <= n <= {MAX_STRANDS}, got {n}")
    sums = [[[1, 0, 0, 0]], [[0, 0, 0, 0]]]
    for k in range(1, n):
        nxt = [[[0, 0, 0, 0] for _ in range(k + 1)] for _ in range(2)]
        for b in (0, 1):
            for r, (cnt, asc, dbl, pairs) in enumerate(sums[b]):
                for s in range(r + 1):
                    down = nxt[0][s]
                    down[0] += cnt
                    down[1] += asc
                    down[2] += dbl
                    down[3] += pairs
                for s in range(r + 1, k + 1):
                    up = nxt[1][s]
                    up[0] += cnt
                    up[1] += asc + cnt
                    up[2] += dbl + b * cnt
                    up[3] += pairs + asc - b * cnt
        sums = nxt
    vertices, edges, hexagons, squares = (
        sum(totals) for totals in zip(*sums[0], *sums[1]))
    return FaceCensus(n, vertices, edges, hexagons, squares)


def pl_rank(n: int) -> int:
    """Free rank of the pure triplet group on n strands, 1 - chi of the
    hexagon complex that ``face_census`` counts, so n runs over
    3..MAX_STRANDS as there.  Returns 0 for n = 3 (the pure group there
    is trivial).
    """
    return face_census(n).rank
