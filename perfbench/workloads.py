"""Seeded job lists for the two workloads.

A job is one ``smallcox`` command line plus what its answer must be.
Input files a job reads are carried in its ``files`` map and written
out by the worker; ``{work}`` in an argument names their directory.
The seed fixes every generated input and the job order, so one seed
always gives a byte-identical job list (see ``digest``).

Why these workloads:

* kernels -- kernel abelianizations, Tietze and holonomy: Smith normal
             form dominates, bare and with its transform, followed by
             many conjugate rewrites against one table; the cosets stay
             <= 120 so closure barely runs.
* closure -- large congruence images and subquotient checks, where the
             breadth-first closure dominates, and hundreds of short jobs
             (images, Tits matrices, membership), where per-call
             overhead does; almost no rewriting and SNF.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from oracle import (PINNED_TRIPLET_6_MOD_3, alternating_kernel,
                    even_vector_kernel, face_census, pure_triplet_rank,
                    pure_twin_rank, racg_mod_4_order,
                    triplet_commutator_torsion, twin_mod_12_order,
                    twin_mod_3_order, twin_second_commutator_rank)

WORKLOADS = ("kernels", "closure")


def _image(family: str, n: int, m: int, order: int) -> dict:
    return {"argv": ["image", "--family", family, "-n", str(n), "-m", str(m)],
            "expect": {"order": order, "modulus": m, "dimension": n - 1}}


def _quotient(check: str, n: int, m: int, kernel: int) -> dict:
    return {"argv": ["quotient", "--check", check, "-n", str(n), "-m", str(m)],
            "expect": {"ok": True, "kernel_order": kernel,
                       "expected_kernel_order": kernel}}


def _abelianize(family: str, n: int, qmap: str, rank: int,
                torsion: list[int]) -> dict:
    return {"argv": ["abelianize", "--family", family, "-n", str(n),
                     "--map", qmap],
            "expect": {"rank": rank, "torsion": torsion}}


def _holonomy(quotient: str, n: int, dimension: int, order: int) -> dict:
    return {"argv": ["holonomy", "--quotient", quotient, "-n", str(n)],
            "expect": {"dimension": dimension, "holonomy_order": order,
                       "faithful": True, "kernel_witnesses": [],
                       "lattice_torsion": []}}


def _permutahedron(n: int) -> dict:
    return {"argv": ["permutahedron", "-n", str(n)],
            "expect": face_census(n)}


def _closure(rng: random.Random) -> list[dict]:
    return _small_jobs(rng, [
        _image("twin", 7, 3, twin_mod_3_order(7)),
        _image("triplet", 6, 3, PINNED_TRIPLET_6_MOD_3),
        _image("twin", 6, 12, twin_mod_12_order(6)),
        _quotient("product", 4, 5, alternating_kernel(4) * even_vector_kernel(4)),
        _quotient("alternating", 5, 4, alternating_kernel(5)),
        _quotient("alternating", 4, 7, alternating_kernel(4)),
        _quotient("even-vectors", 6, 3, even_vector_kernel(6)),
    ])


def _kernels(rng: random.Random) -> list[dict]:
    simplified = {"argv": ["subgroup", "--family", "triplet", "-n", "5",
                           "--map", "symmetric", "--simplify"],
                  "expect": {"cosets": math.factorial(5),
                             "generators": pure_triplet_rank(5),
                             "relators": []}}
    return [
        *_holonomy_jobs(),
        _abelianize("twin", 5, "symmetric", pure_twin_rank(5), []),
        _abelianize("triplet", 5, "symmetric", pure_triplet_rank(5), []),
        _abelianize("twin", 7, "mod2", twin_second_commutator_rank(7), []),
        _abelianize("triplet", 6, "mod2", 0, triplet_commutator_torsion(6)),
        simplified,
        _permutahedron(8),
    ]


def _holonomy_jobs() -> list[dict]:
    return [
        _holonomy("pure-twin", 5, pure_twin_rank(5), math.factorial(5)),
        _holonomy("pure-twin", 4, pure_twin_rank(4), math.factorial(4)),
        _holonomy("pure-triplet", 4, pure_triplet_rank(4), math.factorial(4)),
        _holonomy("second-commutator", 10, twin_second_commutator_rank(10),
                  2 ** 9),
    ]


def _racg_file(rng: random.Random, vertices: int) -> str:
    """A random right-angled Coxeter matrix: bond 2 on edges, inf off."""
    edges = {(i, j) for i in range(vertices) for j in range(i + 1, vertices)
             if rng.random() < 0.5}
    rows = [" ".join("1" if i == j else
                     "2" if (min(i, j), max(i, j)) in edges else "inf"
                     for j in range(vertices)) for i in range(vertices)]
    return "\n".join([str(vertices)] + rows) + "\n"


def _word(rng: random.Random, rank: int, length: int) -> list[int]:
    return [rng.randrange(1, rank + 1) for _ in range(length)]


def _small_jobs(rng: random.Random, jobs: list[dict]) -> list[dict]:
    """``jobs`` followed by a seeded stream of short jobs."""
    jobs = list(jobs)
    for g in range(60):
        name = f"graph{g}.txt"
        job = {"argv": ["image", "--matrix", "{work}/" + name, "-m", "4"],
               "expect": {"order": racg_mod_4_order(6), "modulus": 4,
                          "dimension": 6},
               "files": {name: _racg_file(rng, 6)}}
        jobs.append(job)

    # Words on twin(7); lengths are stratified over 10^3..10^4 so that the
    # total work varies little between seeds.
    twin7 = ["--family", "twin", "-n", "7"]
    count = 40
    for w in range(count):
        length = 1000 + int((w + rng.random()) * 9000 / count)
        name = f"word{w}.txt"
        text = " ".join(map(str, _word(rng, 6, length))) + "\n"
        sign = -1 if length % 2 else 1
        mod = rng.randrange(3, 17)
        exact = {"argv": ["tits", *twin7, "--word-file", "{work}/" + name],
                 "expect": {}, "relations": [["det", sign, None]],
                 "files": {name: text}}
        reduced = {"argv": ["tits", *twin7, "--word-file", "{work}/" + name,
                            "--mod", str(mod)],
                   "expect": {"mod": mod},
                   "relations": [["det", sign, mod],
                                 ["reduces", len(jobs), mod]],
                   "files": {name: text}}
        jobs += [exact, reduced]

    # Membership at coprime m, k and at mk.  Every fourth word is a forced
    # member u (s_i s_{i+1})^(mk) u^-1; odd-length words are never members.
    twin6 = ["--family", "twin", "-n", "6"]
    pairs = [(3, 4), (5, 7), (4, 9), (3, 5), (7, 8), (5, 9)]
    for t in range(50):
        m, k = pairs[rng.randrange(len(pairs))]
        if t % 4 == 0:
            u = _word(rng, 5, rng.randrange(0, 8))
            i = rng.randrange(1, 5)
            word, member = u + [i, i + 1] * (m * k) + u[::-1], True
        else:
            word = _word(rng, 5, rng.randrange(0, 41))
            member = False if len(word) % 2 else None
        base = len(jobs)
        for level in (m, k, m * k):
            job = {"argv": ["member", *twin6, "-m", str(level),
                            "--word", " ".join(map(str, word))],
                   "expect": {} if member is None else {"member": member}}
            if level == m * k:
                job["relations"] = [["crt", base, base + 1]]
            jobs.append(job)

    for _ in range(5):
        jobs += [
            _abelianize("twin", 4, "symmetric", pure_twin_rank(4), []),
            _holonomy("pure-twin", 4, pure_twin_rank(4), math.factorial(4)),
            _holonomy("second-commutator", 8, twin_second_commutator_rank(8),
                      2 ** 7),
            _permutahedron(7),
        ]
    return jobs


_BUILDERS = {"kernels": _kernels, "closure": _closure}


def build(workload: str, seed: int) -> list[dict]:
    """The job list of a workload, in the seed's order.

    A job's id is its position before the shuffle; relations between
    jobs name their partners by that id.
    """
    rng = random.Random(seed)
    jobs = _BUILDERS[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = i
    rng.shuffle(jobs)
    return jobs


def digest(jobs: list[dict]) -> str:
    """sha256 of the canonical job list (arguments, files, expectations)."""
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
