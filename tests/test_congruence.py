import gc
import itertools
import math
import random

import pytest

from smallcox import congruence
from smallcox.congruence import (DEFAULT_CAP, BudgetExceededError,
                                 alternating_quotient_check,
                                 congruence_member, enumerate_image,
                                 even_vector_quotient_check, format_group_dump,
                                 minimal_congruence_power, orbit,
                                 product_quotient_check, quotient_map)
from smallcox.congruence import (FiniteMatrixGroup, FiniteQuotientMap,
                                 QuotientCheck, RelationCheckError,
                                 _level_map)
from smallcox.coxeter import (INF, build_system, named_system, racg_system,
                              simple_graph, symmetric, triplet, twin,
                              universal)
from smallcox.matrices import Matrix, identity_rows, parse_matrix
from smallcox.perms import adjacent_transposition, is_even
from smallcox.rewriting import KernelRewriter, coset_table
from smallcox.tits import _bonds, evaluate, evaluate_mod, generator_matrix
from test_coxeter import all_graphs
from test_perms import identity, multiply


def _decode(rows, ids):
    """The residue rows of a modular image given as row ids."""
    return tuple(rows[i] for i in ids)


class TestEnumerateImage:
    def test_twin_mod_two_collapses(self):
        assert enumerate_image(twin(4), 2).order == 1

    def test_twin_mod_three_is_symmetric_group(self):
        assert enumerate_image(twin(4), 3).order == 24

    def test_twin_mod_four_is_elementary_abelian(self):
        assert enumerate_image(twin(5), 4).order == 16

    def test_triplet_mod_two_is_symmetric_group(self):
        assert enumerate_image(triplet(4), 2).order == 24

    def test_identity_first_and_deterministic(self):
        a = enumerate_image(twin(4), 3)
        b = enumerate_image(twin(4), 3)
        assert a.rows[0] == identity_rows(3)
        assert a.rows == b.rows
        assert a.rows[1] == generator_matrix(twin(4), 1).reduce(3).rows

    def test_contains(self):
        rows = enumerate_image(twin(4), 3).rows
        assert evaluate_mod(twin(4), (1, 2, 3, 2), 3).rows in rows
        assert identity_rows(3) in rows

    def test_closure_spot_check(self):
        group = enumerate_image(twin(4), 5)
        rng = random.Random(1)
        els = [Matrix(r, 5) for r in group.rows]
        rows = set(group.rows)
        for _ in range(50):
            a = els[rng.randrange(len(els))]
            b = els[rng.randrange(len(els))]
            assert (a * b).rows in rows

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            enumerate_image(twin(4), 5, cap=10)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            enumerate_image(twin(4), 1)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_injectivity_orders(self, n):
        # mod 4 the image is the mod-2 abelianization; mod 6 it is S_n
        assert enumerate_image(twin(n), 4).order == 2 ** (n - 1)
        assert enumerate_image(twin(n), 6).order == math.factorial(n)
        assert enumerate_image(triplet(n), 2).order == math.factorial(n)

    @pytest.mark.parametrize("n", (4, 5))
    def test_mod_three_image_is_proper(self, n):
        gl_order = math.prod(3 ** (n - 1) - 3 ** i for i in range(n - 1))
        assert enumerate_image(twin(n), 3).order < gl_order

    @pytest.mark.parametrize("vertices", range(1, 6))
    def test_right_angled_mod_four_is_mod2_abelianization(self, vertices):
        for graph in all_graphs(vertices):
            group = enumerate_image(racg_system(graph), 4)
            assert group.order == 2 ** vertices
            ident = Matrix.identity(vertices, 4)
            assert all(el * el == ident for el in
                       (Matrix(r, 4) for r in group.rows))


class TestCongruenceMember:
    def test_sixth_power_is_level_six(self):
        assert congruence_member(twin(4), (1, 2) * 3, 6)

    def test_odd_word_never_member(self):
        assert not congruence_member(twin(4), (1,), 3)

    def test_identity_member_everywhere(self):
        assert congruence_member(twin(4), (), 12)

    def test_divisor_monotonicity(self):
        rng = random.Random(9)
        system = twin(4)
        for _ in range(120):
            word = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 25)))
            for m in (4, 6, 12, 30):
                if congruence_member(system, word, m):
                    for k in range(2, m + 1):
                        if m % k == 0:
                            assert congruence_member(system, word, k)

    def test_crt_equivalence(self):
        rng = random.Random(10)
        for system in (twin(4), twin(5)):
            for (m, k) in ((3, 4), (5, 7)):
                for i in range(60):
                    if i % 6 == 0:
                        u = tuple(rng.randrange(1, system.rank + 1)
                                  for _ in range(rng.randrange(0, 6)))
                        g = rng.randrange(1, system.rank)
                        word = u + (g, g + 1) * (m * k) + tuple(reversed(u))
                    else:
                        word = tuple(rng.randrange(1, system.rank + 1)
                                     for _ in range(rng.randrange(0, 31)))
                    both = congruence_member(system, word, m) and \
                        congruence_member(system, word, k)
                    assert congruence_member(system, word, m * k) == both


class TestOrbit:
    @pytest.mark.parametrize("family", [twin, triplet])
    @pytest.mark.parametrize("kind,m", [("symmetric", None), ("modular", 4),
                                        ("mod2_abelian", None)])
    def test_action_table_leaves_the_elements_alone(self, family, kind, m):
        qmap = quotient_map(family(5), kind, m)
        bare = orbit(qmap.identity_image, qmap.step, qmap.bond_orders())
        elements, action, words = orbit(qmap.identity_image, qmap.step,
                                        qmap.system.exponents,
                                        with_action=True)
        assert elements == bare
        position = {x: i for i, x in enumerate(bare)}
        assert action == [tuple(position[qmap.step(x, k)] for k in range(4))
                          for x in bare]
        # each word reaches its element, and the words are shortlex
        assert [qmap.image_of_word(w) for w in words] == bare
        assert words == sorted(words, key=lambda w: (len(w), w))

    @pytest.mark.parametrize("with_action", [False, True])
    def test_budget_error_names_the_elements_expanded(self, with_action):
        # S_4 as the image of T_4: e -> s1, s2, s3; s1 -> s1s2, s1s3;
        # s2 -> s2s1, s2s3; s3 -> s3s1 = s1s3 (a step the pruned orbit
        # skips), then s3s2 is the ninth element, after e, s1 and s2
        # were expanded
        qmap = quotient_map(twin(4), "symmetric")
        with pytest.raises(BudgetExceededError) as exc:
            orbit(qmap.identity_image, qmap.step, qmap.bond_orders(), 8,
                  with_action=with_action)
        assert (exc.value.budget, exc.value.expanded) == (8, 3)
        assert str(exc.value) == \
            "image exceeds element budget 8 (3 elements expanded)"

    @pytest.mark.parametrize("cap", [0, -1])
    def test_non_positive_cap_is_rejected(self, cap):
        qmap = quotient_map(twin(4), "symmetric")
        with pytest.raises(ValueError, match="^cap must be positive$"):
            orbit(qmap.identity_image, qmap.step, qmap.system.exponents,
                  cap)


class TestRecords:
    def test_quotient_check_detail_defaults_to_empty(self):
        check = QuotientCheck("alternating", 4, 5, 60, 1, 1, True)
        assert check.detail == ""
        assert check == QuotientCheck(kind="alternating", n=4, m=5,
                                      image_order=60, kernel_order=1,
                                      expected_kernel_order=1, ok=True,
                                      detail="")

    def test_quotient_map_with_a_bad_step_is_rejected(self):
        # x + 1 squares no generator to the identity image 0
        with pytest.raises(RelationCheckError, match="not an involution"):
            FiniteQuotientMap(twin(3), "custom", 0, lambda x, k: x + 1)


class TestQuotientChecks:
    @pytest.mark.parametrize("n,k,kind,m", [
        (4, 3, "symmetric", 7), (5, 3, "symmetric", 4),
        (5, 4, "mod2_abelian", 3)])
    def test_level_map_is_the_kernel_map_mod_km(self, n, k, kind, m):
        # oracle: the row-tuple closure mod km, restricted to the
        # matrices trivial mod m, each reduced mod k
        order, mapping, well_defined, injective = _level_map(
            twin(n), m, k, kind, 10 ** 6)
        # at most 256 rows are all interned when a map is built, so a
        # fresh map's rows are those the level map's ids index
        rows = quotient_map(twin(n), "modular", k).rows
        assert len(rows) <= 256
        aux = quotient_map(twin(n), kind)
        pairs = _reference_pairs(n, k * m, aux.identity_image, aux.step)
        kernel, _, _ = _reference_kernel_map(pairs, m)
        assert {_decode(rows, b): s for b, s in mapping.items()} == {
            _reduce(g, k): s for g, s in kernel.items()}
        assert order == len(pairs)
        assert well_defined and injective

    def test_level_map_flags_a_matrix_with_two_auxiliaries(self,
                                                           monkeypatch):
        # the identity mod m with one mod-k image and two auxiliaries is
        # no map; its one auxiliary left stays injective
        one = quotient_map(twin(3), "modular", 5).identity_image
        image = quotient_map(twin(3), "modular", 3).identity_image
        monkeypatch.setattr(congruence, "orbit", lambda *args: [
            (one, image, "a"), (one, image, "b")])
        _, mapping, well_defined, injective = _level_map(
            twin(3), 5, 3, "symmetric", DEFAULT_CAP)
        assert set(mapping.values()) == {"b"}
        assert not well_defined and injective

    @pytest.mark.parametrize("check,moduli", [
        (lambda: alternating_quotient_check(4, 5), {3, 5}),
        (lambda: even_vector_quotient_check(4, 3), {3, 4}),
        (lambda: product_quotient_check(4, 5), {3, 4, 5, 12})],
        ids=["alternating", "even-vectors", "product"])
    def test_checks_build_no_map_mod_km(self, check, moduli, monkeypatch):
        # CRT: the images mod m and mod k are the image mod km
        asked = set()

        def build(system, kind, m=None):
            if kind == "modular":
                asked.add(m)
            return quotient_map(system, kind, m)

        monkeypatch.setattr(congruence, "quotient_map", build)
        assert check().ok
        assert asked == moduli

    @pytest.mark.parametrize("n,m,kernel", [(4, 4, 12), (4, 5, 12), (5, 4, 60)])
    def test_alternating_above_level_two(self, n, m, kernel):
        result = alternating_quotient_check(n, m)
        assert result.ok
        assert result.kernel_order == kernel

    @pytest.mark.parametrize("n,m,kernel", [(4, 2, 24), (5, 2, 120)])
    def test_alternating_degenerates_at_level_two(self, n, m, kernel):
        # level 2 is the whole group (all generator matrices are trivial
        # mod 2), so the subquotient is S_n, not A_n, and the check
        # honestly fails with a kernel of full order
        result = alternating_quotient_check(n, m)
        assert not result.ok
        assert result.kernel_order == kernel
        assert "even=False" in result.detail

    @pytest.mark.parametrize("n,m,kernel", [(4, 3, 4), (5, 3, 8), (4, 5, 4)])
    def test_even_vectors(self, n, m, kernel):
        result = even_vector_quotient_check(n, m)
        assert result.ok
        assert result.kernel_order == kernel

    def test_product(self):
        result = product_quotient_check(4, 5)
        assert result.ok
        assert result.kernel_order == 48

    def test_product_rejects_bad_m(self):
        with pytest.raises(ValueError):
            product_quotient_check(4, 1)
        with pytest.raises(ValueError):
            product_quotient_check(4, 6)

    def test_alternating_rejects_multiples_of_three(self):
        with pytest.raises(ValueError):
            alternating_quotient_check(4, 6)

    def test_even_vectors_rejects_even_m(self):
        with pytest.raises(ValueError):
            even_vector_quotient_check(4, 4)

    def test_paired_projection_surjects(self):
        n, m = 4, 3
        aux = [adjacent_transposition(n, i) for i in range(1, n)]
        qmap = quotient_map(twin(n), "modular", 3 * m)
        rows, one, step = qmap.rows, qmap.identity_image, qmap.step
        pairs = orbit((one, identity(n)),
                      lambda x, k: (step(x[0], k), multiply(x[1], aux[k])),
                      twin(n).exponents)
        first = {_decode(rows, p[0]) for p in pairs}
        group = enumerate_image(twin(n), 3 * m)
        assert first == set(group.rows)


def _inversions(p) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(p)), 2)
               if p[i] > p[j])


class TestOntoByCounting:
    """The onto flags of the subquotient checks count the image; these
    oracles list the whole target and compare sets instead."""

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 5), (5, 2), (5, 4)])
    def test_alternating_onto_is_set_equality(self, n, m):
        result = alternating_quotient_check(n, m)
        _, mapping, _, _ = _level_map(twin(n), m, 3, "symmetric",
                                      DEFAULT_CAP)
        a_n = {p for p in itertools.permutations(range(n))
               if _inversions(p) % 2 == 0}
        onto = set(map(tuple, mapping.values())) == a_n
        assert f"onto={onto}" in result.detail

    @pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (4, 5), (5, 3), (6, 3)])
    def test_even_vectors_onto_is_set_equality(self, n, m):
        result = even_vector_quotient_check(n, m)
        _, mapping, _, _ = _level_map(twin(n), m, 4, "mod2_abelian",
                                      DEFAULT_CAP)
        # images are bit masks over the n-1 generators of the twin group
        even = {v for v in range(2 ** (n - 1)) if bin(v).count("1") % 2 == 0}
        onto = set(mapping.values()) == even
        assert f"onto={onto}" in result.detail


# ---------------------------------------------------------------------------
# the row-tuple closure that row ids replaced, kept as a reference: an
# element is the tuple of its residue rows, and each distinct row is
# multiplied by a generator once


class _RowTimesGenerator(dict):
    """row -> row * s_(k+1) with entries mod m, each distinct row once."""

    def __init__(self, bond, k0, m):
        super().__init__()
        self.bond, self.k0, self.m = bond, k0, m

    def __missing__(self, row):
        k0, m, v = self.k0, self.m, row[self.k0]
        out = row
        if v:
            new = list(row)
            new[k0] = -v % m
            for j, a in self.bond:
                new[j] = (new[j] + v * a) % m
            out = tuple(new)
        self[row] = out
        return out


def _reference_step(system, m):
    maps = [_RowTimesGenerator(bond, k0, m).__getitem__
            for k0, bond in enumerate(_bonds(system))]
    return lambda rows, k0: tuple(map(maps[k0], rows))


def _reference_orbit(start, step, ngens):
    seen = {start}
    elements = [start]
    for x in elements:
        for k in range(ngens):
            y = step(x, k)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def _modular_reference(system, m):
    """The image mod m as row tuples, in discovery order."""
    return _reference_orbit(identity_rows(system.rank),
                            _reference_step(system, m), system.rank)


def _reference_pairs(n, modulus, aux_start, aux_step):
    step = _reference_step(twin(n), modulus)
    return _reference_orbit((identity_rows(n - 1), aux_start),
                            lambda x, k: (step(x[0], k), aux_step(x[1], k)),
                            n - 1)


def _reduce(rows, m):
    """Row tuples with every entry reduced mod m."""
    return tuple(tuple(e % m for e in row) for row in rows)


def _reference_kernel_map(pairs, m):
    ident = identity_rows(len(pairs[0][0]))
    mapping = {}
    well_defined = True
    for g, s in pairs:
        if all(tuple(e % m for e in row) == one
               for row, one in zip(g, ident)):
            if g in mapping and mapping[g] != s:
                well_defined = False
            mapping[g] = s
    return mapping, well_defined, len(set(mapping.values())) == len(mapping)


def _reference_check(kind, n, m):
    """The ``QuotientCheck`` record as the row-tuple closure makes it."""
    if kind == "alternating":
        sym = quotient_map(twin(n), "symmetric")
        pairs = _reference_pairs(n, 3 * m, sym.identity_image, sym.step)
        mapping, well_defined, injective = _reference_kernel_map(pairs, m)
        values = set(mapping.values())
        even = all(is_even(s) for s in values)
        onto = even and len(values) == math.factorial(n) // 2
        return QuotientCheck(
            kind, n, m, len(pairs), len(mapping), math.factorial(n) // 2,
            well_defined and injective and even and onto,
            f"well_defined={well_defined} injective={injective} "
            f"even={even} onto={onto}")
    if kind == "even-vectors":
        bits = quotient_map(twin(n), "mod2_abelian")
        pairs = _reference_pairs(n, 4 * m, bits.identity_image, bits.step)
        mapping, well_defined, injective = _reference_kernel_map(pairs, m)
        values = set(mapping.values())
        onto = (all(bin(v).count("1") % 2 == 0 for v in values)
                and len(values) == 2 ** (n - 2))
        return QuotientCheck(
            kind, n, m, len(pairs), len(mapping), 2 ** (n - 2),
            well_defined and injective and onto,
            f"well_defined={well_defined} injective={injective} onto={onto}")
    alt = _reference_check("alternating", n, m)
    vec = _reference_check("even-vectors", n, m)
    ident = identity_rows(n - 1)
    pairs = _reference_pairs(n, 12, ident, _reference_step(twin(n), m))
    kernel_order = sum(1 for _, s in pairs if s == ident)
    return QuotientCheck(
        "product", n, m, len(pairs), kernel_order,
        alt.expected_kernel_order * vec.expected_kernel_order,
        alt.ok and vec.ok
        and kernel_order == alt.kernel_order * vec.kernel_order,
        f"alt={alt.kernel_order} vec={vec.kernel_order} "
        f"combined={kernel_order}")


def _seeded_right_angled(seed, vertices):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(1, vertices + 1)
             for j in range(i + 1, vertices + 1) if rng.random() < 0.5]
    return racg_system(simple_graph(vertices, edges))


_REFERENCE_SYSTEMS = (
    [(f"{family.__name__}{n}", family(n))
     for family in (twin, triplet, symmetric) for n in (3, 4, 5)]
    + [(f"right-angled-seed{seed}", _seeded_right_angled(seed, 4))
       for seed in (1, 2, 3)])
# every system at every modulus, except triplet(5) mod 12, whose image
# has millions of elements
_REFERENCE_IMAGES = [(name, system, m) for name, system in _REFERENCE_SYSTEMS
                     for m in (2, 3, 4, 5, 6, 12)
                     if (name, m) != ("triplet5", 12)]


class TestAgainstRowTupleReference:
    """Row ids change how the closure stores an element, not which
    elements it finds or their order: every image and subquotient
    record equals what the row-tuple closure computes."""

    @pytest.mark.parametrize("name,system,m", _REFERENCE_IMAGES,
                             ids=[f"{name}-{m}"
                                  for name, _, m in _REFERENCE_IMAGES])
    def test_image_matches_the_reference(self, name, system, m):
        group = enumerate_image(system, m)
        assert group.rows == tuple(_modular_reference(system, m))

    @pytest.mark.parametrize("kind,n,m", [
        ("alternating", n, m) for n in (3, 4) for m in (2, 4, 5, 7)] + [
        ("alternating", 5, 2), ("alternating", 5, 4),
        ("even-vectors", 3, 3), ("even-vectors", 3, 5),
        ("even-vectors", 4, 3), ("even-vectors", 4, 5),
        ("even-vectors", 5, 3), ("even-vectors", 6, 3),
        ("even-vectors", 4, 15),
        ("product", 3, 5), ("product", 3, 7), ("product", 4, 5),
        ("product", 4, 7), ("product", 4, 13)])
    def test_quotient_check_matches_the_reference(self, kind, n, m):
        check = {"alternating": alternating_quotient_check,
                 "even-vectors": even_vector_quotient_check,
                 "product": product_quotient_check}[kind]
        assert check(n, m) == _reference_check(kind, n, m)


class _Counted:
    """A step that counts its calls."""

    def __init__(self, step):
        self.step, self.calls = step, 0

    def __call__(self, x, k):
        self.calls += 1
        return self.step(x, k)


def _seeded_small_system(rank, seed):
    """A random symmetric exponent matrix with bonds in {2, 3, inf}."""
    rng = random.Random(seed)
    rows = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            rows[i][j] = rows[j][i] = rng.choice((2, 3, INF))
    return build_system(rows)


def _permutation_map(system, images):
    """The quotient of ``system`` sending generator k+1 to ``images[k]``,
    as right multiplication of permutations."""
    return FiniteQuotientMap(system, "custom", identity(len(images[0])),
                             lambda p, k: multiply(p, images[k]))


def _dihedral(m):
    """Two reflections of the m-gon, x -> -x and x -> 1 - x mod m, whose
    product has order m."""
    return (tuple(-x % m for x in range(m)),
            tuple((1 - x) % m for x in range(m)))


def _w_nm_maps():
    """Finite images of the w_nm systems with bonds 4..6: the mod-2
    abelianization, the dihedral group of order 2m (rank 2, and rank 3
    with s_1 and s_3 sent to one reflection) and, for m = 6, S_n."""
    out = []
    for m in (4, 5, 6):
        a, b = _dihedral(m)
        out.append((f"w3{m}-dihedral",
                    _permutation_map(named_system("w_nm", 3, m), (a, b))))
        out.append((f"w4{m}-dihedral",
                    _permutation_map(named_system("w_nm", 4, m), (a, b, a))))
        for n in (3, 4, 5, 6):
            out.append((f"w{n}{m}-mod2",
                        quotient_map(named_system("w_nm", n, m),
                                     "mod2_abelian")))
    for n in (4, 5, 6):
        out.append((f"w{n}6-symmetric",
                    _permutation_map(named_system("w_nm", n, 6),
                                     [adjacent_transposition(n, i)
                                      for i in range(1, n)])))
    return out


_W_NM_MAPS = _w_nm_maps()


class TestShortlexPruning:
    """Without ``with_action`` the orbit skips the steps that no
    shortlex-least word takes; it must list the same elements in the
    same order as stepping every generator."""

    @pytest.mark.parametrize("system,m,full,own,image", [
        (twin(6), 12, 57_600, 23_195, 22_623),
        (triplet(6), 3, 87_480, 66_251, 60_257),
        (twin(7), 3, 30_240, 17_203, 13_037)],
        ids=["twin6-12", "triplet6-3", "twin7-3"])
    def test_step_counts(self, system, m, full, own, image):
        # every generator, then W's own exponents, then the image's
        # bond orders
        qmap = quotient_map(system, "modular", m)
        step = _Counted(qmap.step)
        everything = orbit(qmap.identity_image, step, system.exponents,
                           with_action=True)[0]
        counts = [step.calls]
        for exponents in (system.exponents, qmap.bond_orders()):
            step.calls = 0
            assert orbit(qmap.identity_image, step, exponents) == everything
            counts.append(step.calls)
        assert counts == [full, own, image]
        assert full == len(everything) * system.rank

    @pytest.mark.parametrize("rank,seed", [(rank, seed)
                                           for rank in (2, 3, 4, 5)
                                           for seed in range(20)])
    def test_seeded_small_systems_match_the_reference(self, rank, seed):
        system = _seeded_small_system(rank, seed)
        for kind, m in [("modular", m) for m in range(2, 7)] + [
                ("mod2_abelian", None)]:
            qmap = quotient_map(system, kind, m)
            start, step = qmap.identity_image, qmap.step
            try:
                elements = orbit(start, step, qmap.bond_orders(), 5000)
            except BudgetExceededError as exc:
                # too large to list twice: the full orbit must stop at
                # the same element
                with pytest.raises(BudgetExceededError) as full:
                    orbit(start, step, system.exponents, 5000,
                          with_action=True)
                assert full.value.expanded == exc.expanded
                continue
            assert elements == _reference_orbit(start, step, rank)

    @pytest.mark.parametrize("name,qmap", _W_NM_MAPS,
                             ids=[name for name, _ in _W_NM_MAPS])
    def test_w_nm_images_match_the_reference(self, name, qmap):
        # finite bonds 4..6, so runs up to length 6 are read
        elements = orbit(qmap.identity_image, qmap.step, qmap.bond_orders())
        assert elements == _reference_orbit(qmap.identity_image, qmap.step,
                                            qmap.system.rank)

    @pytest.mark.parametrize("n,m,k,kind", [
        (4, 5, 3, "symmetric"), (5, 4, 3, "symmetric"),
        (4, 5, 4, "mod2_abelian"), (6, 3, 4, "mod2_abelian"),
        (3, 5, 12, "trivial"), (4, 5, 12, "trivial"), (4, 7, 12, "trivial")])
    def test_level_orbits_match_the_reference(self, n, m, k, kind,
                                              monkeypatch):
        # the three quotient checks' orbits: the level map walks its own
        # bond orders, which are the entrywise lcm of the three maps'
        # orders (INF where any is INF), and lists the image mod km in
        # the order of the row-tuple closure mod km
        built, orbits = [], []

        def build(*args):
            built.append(quotient_map(*args))
            return built[-1]

        def close(start, step, exponents, cap):
            orbits.append((exponents, orbit(start, step, exponents, cap)))
            return orbits[-1][1]

        monkeypatch.setattr(congruence, "quotient_map", build)
        monkeypatch.setattr(congruence, "orbit", close)
        order, _, _, _ = _level_map(twin(n), m, k, kind, DEFAULT_CAP)
        (exponents, triples), = orbits
        mod_m, mod_k, aux = built
        assert exponents == tuple(
            tuple(INF if INF in orders else math.lcm(*orders)
                  for orders in zip(*rows))
            for rows in zip(*(qmap.bond_orders() for qmap in built)))
        reference = _reference_pairs(n, k * m, aux.identity_image, aux.step)
        assert [(_decode(mod_m.rows, a), _decode(mod_k.rows, b), s)
                for a, b, s in triples] == [
            (_reduce(g, m), _reduce(g, k), s) for g, s in reference]
        assert order == len(reference)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_image_bond_orders_have_a_closed_form(self, n):
        # twin: consecutive s_i s_(i+1) has the least congruence power;
        # triplet: distant s_i s_j has order m; finite bonds stay
        r = n - 1
        for m in range(3, 17):
            power = minimal_congruence_power(m)
            assert quotient_map(twin(n), "modular", m).bond_orders() == tuple(
                tuple(1 if i == j else power if abs(i - j) == 1 else 2
                      for j in range(r)) for i in range(r))
            assert quotient_map(triplet(n), "modular", m).bond_orders() == \
                tuple(tuple(1 if i == j else 3 if abs(i - j) == 1 else m
                            for j in range(r)) for i in range(r))

    def test_an_order_of_one_stays_exact(self):
        # T_n mod 2 is trivial: s_i s_(i+1) is the identity
        qmap = quotient_map(twin(5), "modular", 2)
        assert qmap.bond_orders() == ((1, 1, 2, 2), (1, 1, 1, 2),
                                      (2, 1, 1, 1), (2, 2, 1, 1))
        # s_2, s_3 and s_4 equal s_1 there, so one step lists the image
        step = _Counted(qmap.step)
        assert orbit(qmap.identity_image, step, qmap.bond_orders()) == [
            qmap.identity_image]
        assert step.calls == 1
        assert enumerate_image(twin(5), 2).order == 1

    def test_a_walk_that_misses_the_identity_keeps_infinity(self):
        # on points, not a group: s_1 s_2 sends 0 to 2 and 2 to 2, so the
        # walk meets 2 twice; the relators hold at 0, so the map is built
        T = [{0: 1, 1: 0, 2: 3, 3: 2}, {0: 0, 1: 2, 2: 1, 3: 2}]
        qmap = FiniteQuotientMap(twin(3), "hand", 0, lambda x, k: T[k][x])
        assert qmap.bond_orders() == ((1, INF), (INF, 1))

    def test_a_walk_past_the_limit_keeps_infinity(self):
        # the infinite dihedral group on the integers: s_1 s_2 is x -> x + 1
        qmap = FiniteQuotientMap(twin(3), "hand", 0,
                                 lambda x, k: (k - x) if k else -x)
        assert qmap.bond_orders(limit=50) == ((1, INF), (INF, 1))
        with pytest.raises(BudgetExceededError):
            orbit(0, qmap.step, qmap.bond_orders(limit=50), 50)

    def test_kernels_compute_no_bond_orders(self, monkeypatch):
        # coset tables step every generator and read every entry
        def refuse(self, limit=DEFAULT_CAP):
            raise AssertionError("bond orders computed")
        monkeypatch.setattr(FiniteQuotientMap, "bond_orders", refuse)
        table = coset_table(quotient_map(twin(5), "modular", 3))
        assert table.count == 120
        rewriter = KernelRewriter(quotient_map(triplet(5), "symmetric"))
        assert str(rewriter.invariants) == "Z^61"


class TestBudgetAndLaziness:
    @pytest.mark.parametrize("system,m,order", [
        (twin(4), 3, 24), (triplet(5), 3, 648), (twin(5), 12, 960),
        (_seeded_right_angled(2, 4), 12, 5184)])
    def test_cap_equal_to_the_order_is_enough(self, system, m, order):
        assert enumerate_image(system, m, cap=order).order == order
        with pytest.raises(BudgetExceededError):
            enumerate_image(system, m, cap=order - 1)

    def test_order_decodes_nothing(self):
        # the image holds row-id tuples until its rows are first read,
        # then decodes each element once
        group = enumerate_image(triplet(5), 3)
        assert group.order == 648
        assert all(type(i) is int for i in group._elements[1])
        rows = group.rows
        assert rows == tuple(_modular_reference(triplet(5), 3))
        assert group.rows is rows and group.order == 648

    def test_row_table_grows_only_with_the_orbit(self):
        # the universal group of rank 9 has an enormous image mod 60,
        # past 256 rows: the map closes rows only up to the 257th, and
        # a capped closure interns only the rows of the elements it
        # meets, at most one per row of each (W's own exponents, so that
        # no bond-order walk interns rows first)
        qmap = quotient_map(universal(10), "modular", 60)
        assert qmap.system.rank == 9
        assert type(qmap.identity_image) is tuple
        built = len(qmap.rows)
        assert 256 < built <= 256 + 9
        with pytest.raises(BudgetExceededError):
            orbit(qmap.identity_image, qmap.step, qmap.system.exponents, 50)
        assert len(qmap.rows) <= built + 9 * 50
        with pytest.raises(BudgetExceededError):
            enumerate_image(universal(10), 60, cap=50)

    def test_modular_maps_leave_no_reference_cycles(self):
        # the row tables share the row list without pointing back at
        # themselves, so dropping a map frees it without the cycle
        # collector
        gc.collect()
        gc.disable()
        try:
            enumerate_image(triplet(5), 3)
            alternating_quotient_check(4, 5)
            product_quotient_check(4, 5)
            coset_table(quotient_map(twin(5), "modular", 3))
            assert gc.collect() == 0
        finally:
            gc.enable()


# (name, system, m, distinct rows, encoding of an image)
_ENCODINGS = [
    ("twin8", twin(8), 3, 254, bytes), ("twin4", twin(4), 7, 66, bytes),
    ("twin4", twin(4), 15, 276, tuple), ("twin5", twin(5), 5, 264, tuple),
    ("rank0", build_system([]), 5, 0, bytes),
    ("rank1", build_system([[1]]), 5, 2, bytes)]


class TestTwoEncodings:
    """An image with at most 256 distinct rows is the ``bytes`` of its
    row ids, one past that the ``tuple``; both list the same elements
    in the same order as the row-tuple closure."""

    @pytest.mark.parametrize("name,system,m,count,encoding", _ENCODINGS,
                             ids=[f"{name}-{m}" for name, _, m, _, _
                                  in _ENCODINGS])
    def test_image_matches_the_reference(self, name, system, m, count,
                                         encoding):
        assert type(quotient_map(system, "modular", m).identity_image) \
            is encoding
        group = enumerate_image(system, m)
        assert all(type(ids) is encoding for ids in group._elements)
        row_list = group._row_list
        assert len(row_list) == count
        reference = _modular_reference(system, m)
        assert [_decode(row_list, ids) for ids in group._elements] == \
            reference
        assert group.rows == tuple(reference)

    def test_the_256th_row_keeps_bytes(self):
        # T_9 mod 3 has 255 distinct rows; its map is built without
        # listing the 362,880 elements
        qmap = quotient_map(twin(9), "modular", 3)
        assert len(qmap.rows) == 255
        assert qmap.identity_image == bytes(range(8))

    @pytest.mark.parametrize("m,encoding", [(7, bytes), (15, tuple)])
    def test_kernel_coset_table_matches_the_reference(self, m, encoding):
        system = twin(4)
        qmap = quotient_map(system, "modular", m)
        assert type(qmap.identity_image) is encoding
        reference = FiniteQuotientMap(system, "modular",
                                      identity_rows(system.rank),
                                      _reference_step(system, m))
        assert coset_table(qmap) == coset_table(reference)


class TestMinimalCongruencePower:
    def test_odd(self):
        assert minimal_congruence_power(3) == 3
        assert minimal_congruence_power(5) == 5

    def test_even(self):
        assert minimal_congruence_power(8) == 4

    @pytest.mark.parametrize("m", range(3, 25))
    def test_parity_formula(self, m):
        assert minimal_congruence_power(m) == (m if m % 2 else m // 2)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            minimal_congruence_power(2)


class TestTorsionProbe:
    def test_no_small_torsion_in_level_three(self):
        # nontrivial elements of the level-3 subgroup have no order <= 12
        rng = random.Random(13)
        for n in (4, 5):
            system = twin(n)
            found = 0
            while found < 50:
                u = tuple(rng.randrange(1, n) for _ in range(rng.randrange(0, 8)))
                i = rng.randrange(1, n - 1)
                sign = rng.choice((1, -1))
                core = (i, i + 1) * 3 if sign > 0 else (i + 1, i) * 3
                word = u + core + tuple(reversed(u))
                assert len(word) <= 20
                mat = evaluate(system, word)
                if mat.is_identity():
                    continue
                assert congruence_member(system, word, 3)
                found += 1
                power = mat
                for _ in range(1, 13):
                    assert not power.is_identity()
                    power = power * mat


def _parse_group_dump(text):
    """Read the ``format_group_dump`` text back."""
    lines = text.splitlines()
    header = lines[0].replace(",", " ").split()
    m = int(header[1])
    d = int(header[3])
    order = int(header[5])
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != order * d:
        raise ValueError(f"expected {order * d} matrix rows, found {len(body)}")
    rows = []
    for i in range(order):
        block = "\n".join(body[i * d:(i + 1) * d])
        rows.append(parse_matrix(f"mod {m}\n{block}").rows)
    return FiniteMatrixGroup(m, d, tuple(rows))


class TestGroupDump:
    def test_round_trip(self):
        group = enumerate_image(twin(4), 3)
        text = format_group_dump(group)
        assert text.splitlines()[0] == "modulus 3, dimension 3, order 24"
        parsed = _parse_group_dump(text)
        assert parsed.modulus == group.modulus
        assert parsed.rows == group.rows
        assert parsed == group and hash(parsed) == hash(group)

    def test_rank_zero_dump(self):
        # the one-element image of the rank-0 system: a header line, then
        # a blank line and no matrix rows
        text = format_group_dump(enumerate_image(build_system([]), 3))
        assert text == "modulus 3, dimension 0, order 1\n\n"
        assert _parse_group_dump(text).rows == ((),)

    def test_stable_across_runs(self):
        a = format_group_dump(enumerate_image(twin(4), 4))
        b = format_group_dump(enumerate_image(twin(4), 4))
        assert a == b
