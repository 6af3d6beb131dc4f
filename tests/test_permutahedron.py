import math

import pytest

from smallcox.permutahedron import face_census


@pytest.mark.parametrize("n", range(3, 9))
def test_face_census_closed_forms(n):
    f = math.factorial(n)
    census = face_census(n)
    assert census.vertices == f
    assert census.edges == f * (n - 1) // 2
    assert census.hexagons == f * (n - 2) // 6
    assert census.squares == f * (n - 2) * (n - 3) // 8
    assert census.rank == 1 + f * (2 * n - 7) // 6
