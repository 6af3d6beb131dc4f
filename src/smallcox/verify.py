"""One-shot verification suites behind ``smallcox verify``.

Each claim pins an expected value and recomputes it from scratch; a
claim that does not match is reported as failed, never raised, and so
is a claim whose computation raises: its computed value is then
``error: <type>: <message>`` (the traceback goes to stderr), and the
claims after it still run.  Random
choices are made with a fixed seed so that identical invocations
produce identical reports.
"""

from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

from . import congruence, crystallo, permutahedron, rewriting, tits
from .coxeter import CoxeterSystem, symmetric, triplet, twin, universal

SEED = 20240913


class Claim(NamedTuple):
    claim_id: str
    description: str
    expected: str
    computed: str
    ok: bool
    seconds: float

    def to_record(self) -> dict:
        # timing is reported separately so records stay byte-stable
        return {
            "id": self.claim_id,
            "description": self.description,
            "expected": self.expected,
            "computed": self.computed,
            "ok": self.ok,
        }


class VerificationReport(NamedTuple):
    suite: str
    claims: tuple[Claim, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.claims)

    def to_record(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "claims": [c.to_record() for c in self.claims],
        }


def _claim(claims, claim_id, description, expected, computed):
    exp_s = str(expected)
    t0 = time.perf_counter()
    try:
        got_s = str(computed())
        ok = exp_s == got_s
    except Exception as exc:  # a claim that raises is a failed claim
        import traceback  # only on this path: it would slow every CLI start
        traceback.print_exc()  # to stderr, apart from the byte-stable report
        got_s, ok = f"error: {type(exc).__name__}: {exc}", False
    dt = time.perf_counter() - t0
    claims.append(Claim(claim_id, description, exp_s, got_s, ok, dt))


def _random_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(1, rank + 1) for _ in range(length))


# ---------------------------------------------------------------------------


def _suite_tits() -> list[Claim]:
    claims: list[Claim] = []
    rng = random.Random(SEED)

    def det_parity():
        for system in (twin(5), triplet(5), symmetric(5)):
            for _ in range(1000):
                w = _random_word(rng, system.rank, rng.randrange(0, 25))
                if tits.evaluate(system, w).det() != (-1) ** len(w):
                    return "parity violated"
        return "parity holds"

    _claim(claims, "tits-det-parity",
           "det of a word image is (-1)^length, 1000 random words per family",
           "parity holds", det_parity)

    def formulas():
        systems = [fam(n) for n in range(3, 8)
                   for fam in (twin, triplet, symmetric, universal)]
        for system in systems:
            for k in range(1, system.rank + 1):
                for l in range(1, system.rank + 1):
                    if k == l:
                        continue
                    prod = tits.generator_matrix(system, k) * \
                        tits.generator_matrix(system, l)
                    if tits.pair_product_formula(system, k, l) != prod:
                        return "pair formula mismatch"
                    if tits.pair_product_square_formula(system, k, l) != prod * prod:
                        return "square formula mismatch"
        return "formulas match products"

    _claim(claims, "tits-pair-formulas",
           "closed forms for s_k s_l and (s_k s_l)^2 equal the products, rank <= 6",
           "formulas match products", formulas)

    def quadratic():
        for m in range(3, 51):
            a, b, c = tits.pm_coefficients(m)
            # long division of Y^m - 1 - (aY^2 + bY + c) by (Y-1)^3
            poly = [0] * (m + 1)
            poly[m] = 1
            poly[0] = -1 - c
            poly[1] -= b
            poly[2] -= a
            divisor = [-1, 3, -3, 1]  # (Y-1)^3, low degree first
            for deg in range(m, 2, -1):
                lead = poly[deg]
                if lead:
                    for t in range(4):
                        poly[deg - 3 + t] -= lead * divisor[t]
            if any(poly):
                return f"nonzero remainder at m={m}"
        return "quadratic remainder matches"

    _claim(claims, "tits-power-quadratic",
           "Y^m - 1 is congruent to the stated quadratic mod (Y-1)^3, m = 3..50",
           "quadratic remainder matches", quadratic)

    def mod_2m_orders():
        for n in range(3, 8):
            for m in range(2, 13):
                for i in range(1, n - 1):
                    if not tits.order_check_2m(n, m, i):
                        return f"fails at n={n} m={m} i={i}"
        return "all orders divide m mod 2m"

    _claim(claims, "tits-order-2m",
           "(X_i X_{i+1})^m is trivial mod 2m for n <= 7, m <= 12",
           "all orders divide m mod 2m", mod_2m_orders)

    def closed_form():
        system = twin(3)
        for k in range(0, 201):
            if tits.twin_power_matrix(k) != tits.evaluate(system, (1, 2) * k):
                return f"fails at k={k}"
        return "closed form matches"

    _claim(claims, "tits-twin-power",
           "[[2k+1,-2k],[2k,1-2k]] equals the k-th power of s_1 s_2, k = 0..200",
           "closed form matches", closed_form)
    return claims


def _suite_congruence() -> list[Claim]:
    claims: list[Claim] = []
    for m, expect in ((2, lambda n: 1), (3, math.factorial),
                      (4, lambda n: 2 ** (n - 1)), (6, math.factorial)):
        _claim(claims, f"image-twin-mod-{m}",
               f"twin group image orders mod {m}, n = 3..6",
               str([expect(n) for n in range(3, 7)]),
               lambda m=m: str([congruence.enumerate_image(twin(n), m).order
                                for n in range(3, 7)]))
    _claim(claims, "image-triplet-mod-2",
           "triplet group image orders mod 2, n = 3..6",
           str([math.factorial(n) for n in range(3, 7)]),
           lambda: str([congruence.enumerate_image(triplet(n), 2).order
                        for n in range(3, 7)]))

    # every twin generator matrix is trivial mod 2 (its row entries are
    # -1, 0 or 2), so level 2 is the whole group and level 2 over level 6
    # is the mod-6 image S_n: there the A_n check must fail with kernel n!
    for (n, m), ok, kernel in (((4, 2), False, 24), ((5, 2), False, 120),
                               ((4, 4), True, 12), ((4, 5), True, 12),
                               ((5, 4), True, 60)):
        group = f"A_{n}" if ok else f"S_{n}, not A_{n}"
        _claim(claims, f"quotient-alternating-{n}-{m}",
               f"level {m} over level {3 * m} in the {n}-strand twin group "
               f"is {group}",
               f"ok={ok} kernel={kernel}",
               lambda n=n, m=m: (lambda r: f"ok={r.ok} kernel={r.kernel_order}")(
                   congruence.alternating_quotient_check(n, m)))
    for (n, m), kernel in (((4, 3), 4), ((5, 3), 8), ((4, 5), 4)):
        _claim(claims, f"quotient-even-vectors-{n}-{m}",
               f"level {m} over level {4 * m} in the {n}-strand twin group "
               f"is the even-weight vectors",
               f"ok=True kernel={kernel}",
               lambda n=n, m=m: (lambda r: f"ok={r.ok} kernel={r.kernel_order}")(
                   congruence.even_vector_quotient_check(n, m)))
    _claim(claims, "quotient-product-4-5",
           "level 5 over level 60 in the 4-strand twin group is A_4 x H",
           "ok=True kernel=48",
           lambda: (lambda r: f"ok={r.ok} kernel={r.kernel_order}")(
               congruence.product_quotient_check(4, 5)))

    _claim(claims, "minimal-power",
           "least k with (s_1 s_2)^k trivial mod m: m odd -> m, m even -> m/2, "
           "m = 3..24",
           str([m if m % 2 else m // 2 for m in range(3, 25)]),
           lambda: str([congruence.minimal_congruence_power(m)
                        for m in range(3, 25)]))

    def crt_membership():
        rng = random.Random(SEED + 1)

        def equivalent(system, w, m, k):
            both = congruence.congruence_member(system, w, m) and \
                congruence.congruence_member(system, w, k)
            return congruence.congruence_member(system, w, m * k) == both

        for system in (twin(4), twin(5)):
            for (m, k) in ((3, 4), (5, 7)):
                for _ in range(125):
                    w = _random_word(rng, system.rank, rng.randrange(0, 31))
                    if not equivalent(system, w, m, k):
                        return "CRT equivalence fails"
                for _ in range(10):
                    # conjugates of (s_i s_{i+1})^(mk) are in both kernels
                    u = _random_word(rng, system.rank, rng.randrange(0, 8))
                    i = rng.randrange(1, system.rank)
                    w = u + (i, i + 1) * (m * k) + tuple(reversed(u))
                    if not congruence.congruence_member(system, w, m * k):
                        return "forced member escaped the kernel"
                    if not equivalent(system, w, m, k):
                        return "CRT equivalence fails on a member"
        return "membership multiplicative over coprime levels"

    _claim(claims, "crt-membership",
           "level-mk membership equals joint level-m and level-k membership, "
           "500 random words",
           "membership multiplicative over coprime levels", crt_membership)

    # a kernel is determined by its coset table, so equal tables of the
    # modular and symmetric maps mean level m is the pure subgroup
    def same_kernel(system, m):
        modular = rewriting.coset_table(
            congruence.quotient_map(system, "modular", m))
        return modular == rewriting.coset_table(
            congruence.quotient_map(system, "symmetric"))

    _claim(claims, "pure-twin-is-gamma-3",
           "the pure twin group is the level-3 congruence subgroup: equal "
           "coset tables mod 3 and onto S_n, n = 3..7",
           str([True] * 5),
           lambda: str([same_kernel(twin(n), 3) for n in range(3, 8)]))
    _claim(claims, "pure-triplet-is-gamma-2",
           "the pure triplet group is the level-2 congruence subgroup: equal "
           "coset tables mod 2 and onto S_n, n = 3..7",
           str([True] * 5),
           lambda: str([same_kernel(triplet(n), 2) for n in range(3, 8)]))
    return claims


def _kernel_rewriter(system: CoxeterSystem, kind: str, m=None):
    return rewriting.KernelRewriter(rewriting.quotient_map(system, kind, m))


def _kernel_invariants(system: CoxeterSystem, kind: str, m=None):
    return _kernel_rewriter(system, kind, m).invariants


def _suite_rewriting() -> list[Claim]:
    claims: list[Claim] = []
    _claim(claims, "rank-pure-twin-4",
           "abelianized pure twin group on 4 strands",
           "Z^7", lambda: str(_kernel_invariants(twin(4), "symmetric")))
    _claim(claims, "rank-pure-twin-5",
           "abelianized pure twin group on 5 strands",
           "Z^31", lambda: str(_kernel_invariants(twin(5), "symmetric")))
    _claim(claims, "rank-twin-commutator",
           "abelianized commutator subgroup of the twin group, n = 3..6",
           str([f"Z^{2 * n - 5}" if 2 * n - 5 > 1 else "Z" for n in range(3, 7)]),
           lambda: str([str(_kernel_invariants(twin(n), "mod2_abelian"))
                        for n in range(3, 7)]))
    _claim(claims, "rank-triplet-commutator",
           "abelianized commutator subgroup of the triplet group, n = 3..5",
           str([" + ".join(["Z_3"] * (n - 2)) for n in range(3, 6)]),
           lambda: str([str(_kernel_invariants(triplet(n), "mod2_abelian"))
                        for n in range(3, 6)]))

    def pl4_free():
        simp = rewriting.tietze_simplify(
            _kernel_rewriter(triplet(4), "symmetric").presentation)
        return f"gens={simp.generators} relators={len(simp.relators)}"

    _claim(claims, "pl4-free-rank-5",
           "pure triplet group on 4 strands simplifies to a free presentation",
           "gens=5 relators=0", pl4_free)
    _claim(claims, "rank-pure-twin-6",
           "abelianized pure twin group on 6 strands is free of the "
           "Bjorner-Welker rank sum_{j=3..n} C(n,j) C(j-1,2)",
           f"Z^{_pure_twin_betti(6)}",
           lambda: str(_kernel_invariants(twin(6), "symmetric")))
    _claim(claims, "rank-pure-triplet",
           "abelianized pure triplet group is Z^(1 + n!(2n-7)/6), n = 4..6",
           str([f"Z^{1 + math.factorial(n) * (2 * n - 7) // 6}"
                for n in range(4, 7)]),
           lambda: str([str(_kernel_invariants(triplet(n), "symmetric"))
                        for n in range(4, 7)]))
    _claim(claims, "rank-pure-twin-7",
           "abelianized pure twin group on 7 strands is free of the "
           "Bjorner-Welker rank sum_{j=3..n} C(n,j) C(j-1,2)",
           f"Z^{_pure_twin_betti(7)}",
           lambda: str(_kernel_invariants(twin(7), "symmetric")))
    _claim(claims, "rank-pure-triplet-7",
           "abelianized pure triplet group on 7 strands is Z^(1 + n!(2n-7)/6) "
           "by Schreier rewriting",
           f"Z^{1 + math.factorial(7) * 7 // 6}",
           lambda: str(_kernel_invariants(triplet(7), "symmetric")))
    return claims


def _pure_twin_betti(n: int) -> int:
    """First Betti number of the no-3-equal arrangement (Bjorner-Welker),
    which PT_n abelianizes to: 7, 31, 111 for n = 4, 5, 6."""
    return sum(math.comb(n, j) * math.comb(j - 1, 2) for j in range(3, n + 1))


def _suite_crystallo() -> list[Claim]:
    claims: list[Claim] = []

    def via_conj(system, kind):
        report = crystallo.holonomy_via_conjugation(
            rewriting.quotient_map(system, kind))
        torsion = report.lattice_torsion
        return (f"faithful={report.faithful} dim={report.dimension}" +
                (f" torsion={torsion}" if torsion else ""))

    _claim(claims, "holonomy-pure-twin-4",
           "S_4 acts faithfully on the rank-7 lattice of the pure twin group",
           "faithful=True dim=7", lambda: via_conj(twin(4), "symmetric"))
    _claim(claims, "holonomy-pure-twin-5",
           "S_5 acts faithfully on the rank-31 lattice of the pure twin group",
           "faithful=True dim=31", lambda: via_conj(twin(5), "symmetric"))
    _claim(claims, "holonomy-pure-twin-6",
           "S_6 acts faithfully on the rank-111 lattice of the pure twin "
           "group, so T_6/PT_6' is crystallographic of dimension 111",
           "faithful=True dim=111", lambda: via_conj(twin(6), "symmetric"))
    _claim(claims, "holonomy-pure-triplet-4",
           "S_4 acts faithfully on the rank-5 lattice of the pure triplet group",
           "faithful=True dim=5", lambda: via_conj(triplet(4), "symmetric"))
    _claim(claims, "holonomy-twin-second-commutator",
           "Z_2^(n-1) acts faithfully on the rank-(2n-5) lattice, n = 4..8",
           str([True] * 5),
           lambda: str([crystallo.theta_faithfulness(n).faithful
                        for n in range(4, 9)]))

    def t3_not_faithful():
        report = crystallo.holonomy_via_conjugation(
            rewriting.quotient_map(twin(3), "symmetric"))
        return (f"faithful={report.faithful} "
                f"kernel_size={len(report.kernel_witnesses) + 1}")

    _claim(claims, "holonomy-twin-3-degenerate",
           "S_3 does not act faithfully on the 3-strand lattice "
           "(kernel is A_3)",
           "faithful=False kernel_size=3", t3_not_faithful)
    _claim(claims, "theta-cross-check",
           "closed-form holonomy matches the conjugation route, n = 4, 5, 6",
           str([True] * 3),
           lambda: str([crystallo.theta_cross_check(n) for n in (4, 5, 6)]))
    _claim(claims, "holonomy-pure-triplet-6",
           "S_6 acts faithfully on the rank-601 lattice of the pure triplet "
           "group, 601 = 1 + n!(2n-7)/6, so L_6/PL_6' is crystallographic "
           "of dimension 601",
           f"faithful=True dim={1 + math.factorial(6) * 5 // 6}",
           lambda: via_conj(triplet(6), "symmetric"))
    _claim(claims, "holonomy-pure-twin-7",
           "S_7 acts faithfully on the rank-351 lattice of the pure twin "
           "group, the Bjorner-Welker sum, so T_7/PT_7' is crystallographic "
           "of dimension 351",
           f"faithful=True dim={_pure_twin_betti(7)}",
           lambda: via_conj(twin(7), "symmetric"))
    _claim(claims, "holonomy-pure-triplet-7",
           "S_7 acts faithfully on the rank-5881 lattice of the pure triplet "
           "group, 5881 = 1 + n!(2n-7)/6, so L_7/PL_7' is crystallographic "
           "of dimension 5881",
           f"faithful=True dim={1 + math.factorial(7) * 7 // 6}",
           lambda: via_conj(triplet(7), "symmetric"))
    return claims


def _suite_complexes() -> list[Claim]:
    claims: list[Claim] = []
    _claim(claims, "pure-triplet-ranks",
           "free rank of the pure triplet group, n = 3..7",
           str([0, 5, 61, 601, 5881]),
           lambda: str([permutahedron.pl_rank(n) for n in range(3, 8)]))
    _claim(claims, "hexagon-counts",
           "hexagon count n!(n-2)/6, n = 3..12",
           str([math.factorial(n) * (n - 2) // 6 for n in range(3, 13)]),
           lambda: str([permutahedron.face_census(n).hexagons
                        for n in range(3, 13)]))
    _claim(claims, "edge-counts",
           "edge count n!(n-1)/2, n = 3..12",
           str([math.factorial(n) * (n - 1) // 2 for n in range(3, 13)]),
           lambda: str([permutahedron.face_census(n).edges
                        for n in range(3, 13)]))
    _claim(claims, "euler-characteristic",
           "chi of the hexagon complex is -n!(2n-7)/6, n = 3..12",
           str([-math.factorial(n) * (2 * n - 7) // 6 for n in range(3, 13)]),
           lambda: str([permutahedron.face_census(n).euler_characteristic
                        for n in range(3, 13)]))
    return claims


_SUITE_BUILDERS = {
    "tits": _suite_tits,
    "congruence": _suite_congruence,
    "rewriting": _suite_rewriting,
    "crystallo": _suite_crystallo,
    "complexes": _suite_complexes,
}

# "all" runs every suite in the order above
SUITES = (*_SUITE_BUILDERS, "all")


def verify(suite: str) -> VerificationReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if suite == "all":
        claims: list[Claim] = []
        for build in _SUITE_BUILDERS.values():
            claims.extend(build())
        return VerificationReport("all", tuple(claims))
    return VerificationReport(suite, tuple(_SUITE_BUILDERS[suite]()))
