import math
from itertools import permutations

import pytest

from smallcox.permutahedron import MAX_STRANDS, face_census, pl_rank


def brute_force_census(n):
    """V, E, F6 and F4 by walking all n! permutations: an edge at each
    ascent, a hexagon at each double ascent and a square at each pair
    of ascents at least two positions apart."""
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
    return vertices, edges, hexagons, squares


@pytest.mark.parametrize("n", range(3, 9))
def test_face_census_matches_enumeration(n):
    census = face_census(n)
    assert (census.vertices, census.edges, census.hexagons,
            census.squares) == brute_force_census(n)


@pytest.mark.parametrize("n", range(3, MAX_STRANDS + 1))
def test_face_census_closed_forms(n):
    f = math.factorial(n)
    census = face_census(n)
    assert census.vertices == f
    assert census.edges == f * (n - 1) // 2
    assert census.hexagons == f * (n - 2) // 6
    assert census.squares == f * (n - 2) * (n - 3) // 8
    assert census.rank == 1 + f * (2 * n - 7) // 6


@pytest.mark.parametrize("n", (2, MAX_STRANDS + 1))
def test_face_census_range(n):
    with pytest.raises(ValueError):
        face_census(n)


@pytest.mark.parametrize("n", (2, MAX_STRANDS + 1))
def test_pl_rank_only_counts(n):
    # past the census range pl_rank once returned the closed form
    # n!(2n-7)/6 + 1; it now raises as face_census does
    with pytest.raises(ValueError, match=f"need 3 <= n <= {MAX_STRANDS}"):
        pl_rank(n)
