"""Expected answers for benchmark jobs and the checks that compare them.

Every expected value is fixed when the job list is built, from a closed
form or a pinned constant; nothing is read back from the program's own
output except where a check relates two jobs computed by independent
routes (an exact matrix against its reduction, membership at m, k and
mk).  Pinned constants without a closed form are marked PINNED.
"""

from __future__ import annotations

import math

# Order of the image of the triplet group on 6 strands mod 3.  No closed
# form is known here; the value is pinned.
PINNED_TRIPLET_6_MOD_3 = 17496


def pure_twin_rank(n: int) -> int:
    """beta_1 of the no-3-equal arrangement: sum_j C(n,j) C(j-1,2)."""
    return sum(math.comb(n, j) * math.comb(j - 1, 2) for j in range(3, n + 1))


def pure_triplet_rank(n: int) -> int:
    """Free rank of PL_n from the permutahedron: 1 + n!(2n-7)/6."""
    return 1 + math.factorial(n) * (2 * n - 7) // 6


def twin_second_commutator_rank(n: int) -> int:
    return 2 * n - 5


def triplet_commutator_torsion(n: int) -> list[int]:
    """The commutator subgroup of L_n abelianizes to Z_3^(n-2)."""
    return [3] * (n - 2)


def twin_mod_3_order(n: int) -> int:
    """The level-2 image is trivial and the level-6 image is S_n, so the
    image mod 3 has order n!."""
    return math.factorial(n)


def twin_mod_12_order(n: int) -> int:
    """|image mod 3| times |level 3 / level 12| = n! * 2^(n-2)."""
    return twin_mod_3_order(n) * 2 ** (n - 2)


def racg_mod_4_order(vertices: int) -> int:
    """Mod 4 a right-angled group maps onto its mod-2 abelianization."""
    return 2 ** vertices


def alternating_kernel(n: int) -> int:
    return math.factorial(n) // 2


def even_vector_kernel(n: int) -> int:
    return 2 ** (n - 2)


def face_census(n: int) -> dict:
    """V, E, F6, F4, chi and rank of the n-permutahedron complex."""
    f = math.factorial(n)
    v, e = f, f * (n - 1) // 2
    f6, f4 = f * (n - 2) // 6, f * (n - 2) * (n - 3) // 8
    return {"n": n, "V": v, "E": e, "F6": f6, "F4": f4, "chi": v - e + f6,
            "rank": pure_triplet_rank(n)}


def determinant(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    d = len(a)
    sign, prev = 1, 1
    for k in range(d - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, d) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[d - 1][d - 1] if d else 1


def check(job: dict, out: dict, outputs: dict) -> str | None:
    """None when the output is correct, else the reason it is not.

    ``outputs`` maps job ids of the same pass to their parsed output (None
    for a job that failed), for the relations between jobs.
    """
    for key, want in job["expect"].items():
        if out.get(key) != want:
            return f"{key}: expected {want!r}, got {out.get(key)!r}"
    for relation in job.get("relations", ()):
        reason = _RELATIONS[relation[0]](out, outputs, *relation[1:])
        if reason:
            return reason
    return None


def _det_is(out, outputs, sign, mod):
    """det of a word's matrix is (-1)^length, mod m when m is given."""
    mat = out.get("matrix")
    if not mat or any(len(row) != len(mat) for row in mat):
        return "matrix is not square"
    if mod is None:
        return None if determinant(mat) == sign else "det != (-1)^length"
    if any(not 0 <= e < mod for row in mat for e in row):
        return f"entry outside 0..{mod - 1}"
    return None if (determinant(mat) - sign) % mod == 0 else \
        "det != (-1)^length mod m"


def _reduces_from(out, outputs, exact_id, mod):
    """The exact matrix of the same word, reduced mod m, is this one."""
    exact = outputs.get(exact_id)
    if exact is None:
        return f"exact job {exact_id} has no output"
    reduced = [[e % mod for e in row] for row in exact["matrix"]]
    return None if reduced == out["matrix"] else \
        f"reduction of job {exact_id} differs"


def _crt(out, outputs, id_m, id_k):
    """For coprime m, k: member at mk iff member at m and at k."""
    parts = [outputs.get(i) for i in (id_m, id_k)]
    if None in parts:
        return "a CRT partner has no output"
    both = parts[0]["member"] and parts[1]["member"]
    return None if out["member"] == both else "CRT membership inconsistent"


_RELATIONS = {"det": _det_is, "reduces": _reduces_from, "crt": _crt}


def inject_wrong(jobs: list[dict]) -> int:
    """Corrupt one expected value (the first integer one in job order) and
    return the id of the job whose check must now fail."""
    for job in jobs:
        for key, want in job["expect"].items():
            if isinstance(want, int) and not isinstance(want, bool):
                job["expect"][key] = want + 1
                return job["id"]
    raise ValueError("no integer expectation to corrupt")
