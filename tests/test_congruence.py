import math
import random

import pytest

from smallcox.congruence import (BudgetExceededError, alternating_quotient_check,
                                 congruence_member, enumerate_image,
                                 even_vector_quotient_check, format_group_dump,
                                 minimal_congruence_power, orbit,
                                 parse_group_dump, product_quotient_check,
                                 quotient_map)
from smallcox.congruence import _kernel_map, _twin_pairs
from smallcox.coxeter import all_graphs, racg_system, triplet, twin
from smallcox.matrices import Matrix, identity_rows
from smallcox.perms import adjacent_transposition, identity, multiply
from smallcox.tits import (evaluate, evaluate_mod, generator_matrix,
                           generator_step)


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
        els = [Matrix.canonical(r, 5) for r in group.rows]
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
                       (Matrix.canonical(r, 4) for r in group.rows))


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
        bare = orbit(qmap.identity_image, qmap.step, 4)
        elements, action = orbit(qmap.identity_image, qmap.step, 4,
                                 with_action=True)
        assert elements == bare
        position = {x: i for i, x in enumerate(bare)}
        assert action == [tuple(position[qmap.step(x, k)] for k in range(4))
                          for x in bare]


class TestQuotientChecks:
    @pytest.mark.parametrize("n,factor,kind,m", [
        (4, 3, "symmetric", 7), (5, 3, "symmetric", 4),
        (5, 4, "mod2_abelian", 3)])
    def test_kernel_map_keeps_the_pairs_trivial_mod_m(self, n, factor, kind,
                                                       m):
        # oracle: wrap each matrix and reduce it as a Matrix
        pairs = _twin_pairs(n, factor * m, kind, None, 10 ** 6)
        mapping, well_defined, injective = _kernel_map(pairs, m)
        kernel = {g: s for g, s in pairs
                  if Matrix.canonical(g, factor * m).reduce(m).is_identity()}
        assert mapping == kernel
        assert well_defined and injective

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
        step = generator_step(twin(n), 3 * m)
        pairs = orbit((identity_rows(n - 1), identity(n)),
                      lambda x, k: (step(x[0], k), multiply(x[1], aux[k])),
                      n - 1)
        first = {p[0] for p in pairs}
        group = enumerate_image(twin(n), 3 * m)
        assert first == set(group.rows)


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


class TestGroupDump:
    def test_round_trip(self):
        group = enumerate_image(twin(4), 3)
        text = format_group_dump(group)
        assert text.splitlines()[0] == "modulus 3, dimension 3, order 24"
        parsed = parse_group_dump(text)
        assert parsed.modulus == group.modulus
        assert parsed.rows == group.rows
        assert parsed == group and hash(parsed) == hash(group)

    def test_stable_across_runs(self):
        a = format_group_dump(enumerate_image(twin(4), 4))
        b = format_group_dump(enumerate_image(twin(4), 4))
        assert a == b
