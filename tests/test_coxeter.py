import itertools

import pytest

from smallcox.coxeter import (INF, BadDiagonalError, BadOffDiagonalError,
                              CoxeterError, NonSymmetricMatrixError,
                              build_system, family_of, format_word,
                              is_small, named_system,
                              parse_coxeter_matrix, parse_word, racg_system,
                              relators, shortlex_moves, simple_graph,
                              symmetric, triplet, twin, universal)
from smallcox.tits import evaluate


def complete_graph(n):
    return simple_graph(n, [(i, j) for i in range(1, n + 1)
                            for j in range(i + 1, n + 1)])


def racg_join_decomposition(graph):
    """Detect when a right-angled group is virtually abelian.

    Returns (m, k) when the graph is the join of a complete graph on m
    vertices with k pairs of non-adjacent vertices, equivalently when
    the complement graph has maximum degree <= 1 (m = isolated
    complement vertices, k = complement edges).  Returns None otherwise.
    The group of such a graph is Z_2^m x D_inf^k, of free rank k.
    """
    n = graph.vertices
    comp_degree = [0] * (n + 1)
    comp_edges = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not graph.has_edge(i, j):
                comp_degree[i] += 1
                comp_degree[j] += 1
                comp_edges += 1
    if any(d > 1 for d in comp_degree[1:]):
        return None
    m = sum(1 for d in comp_degree[1:] if d == 0)
    return (m, comp_edges)


def all_graphs(n):
    """Every simple graph on n labelled vertices (2^(n choose 2) of them)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        yield simple_graph(n, [p for p, b in zip(pairs, bits) if b])


class TestBuildSystem:
    def test_braid_rank_two(self):
        system = build_system([[1, 3], [3, 1]])
        assert system.rank == 2
        assert system.exponent(1, 2) == 3

    def test_infinite_bond(self):
        system = build_system([[1, INF], [INF, 1]])
        assert system.rank == 2
        assert system.exponent(1, 2) is INF

    def test_inf_token_accepted(self):
        system = build_system([[1, "inf"], ["inf", 1]])
        assert system.exponent(2, 1) is INF

    def test_non_symmetric_rejected(self):
        with pytest.raises(NonSymmetricMatrixError):
            build_system([[1, 2], [3, 1]])

    def test_bad_diagonal_rejected(self):
        with pytest.raises(BadDiagonalError):
            build_system([[2, 3], [3, 1]])

    def test_bad_off_diagonal_rejected(self):
        with pytest.raises(BadOffDiagonalError):
            build_system([[1, 1], [1, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(CoxeterError):
            build_system([[1, 2, 2], [2, 1, 2]])

    @pytest.mark.parametrize("e", [2.5, True], ids=["float", "bool"])
    def test_non_integer_exponent_rejected(self, e):
        # True == 1 would otherwise pass as an integer
        with pytest.raises(CoxeterError, match=r"^bad exponent "):
            build_system([[1, e], [e, 1]])

    def test_equal_systems_hash_alike_and_dedupe(self):
        a, b = twin(4), build_system(twin(4).exponents)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, triplet(4)}) == 2
        assert a != a.exponents

    def test_exponents_are_read_only(self):
        system = twin(3)
        with pytest.raises(AttributeError):
            system.exponents = triplet(3).exponents
        assert system == twin(3)


class TestNamedFamilies:
    def test_twin_exponents(self):
        system = twin(4)
        assert system.exponent(1, 2) is INF
        assert system.exponent(2, 3) is INF
        assert system.exponent(1, 3) == 2

    def test_triplet_exponents(self):
        system = triplet(4)
        assert system.exponent(1, 2) == 3
        assert system.exponent(2, 3) == 3
        assert system.exponent(1, 3) is INF

    def test_w_nm_with_bond_three_is_symmetric(self):
        assert named_system("w_nm", 4, m=3) == symmetric(4)

    def test_universal(self):
        system = universal(4)
        assert all(system.exponent(i, j) is INF
                   for i in range(1, 4) for j in range(1, 4) if i != j)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_family_patterns(self, n):
        r = n - 1
        for family, near, far in (("twin", INF, 2), ("triplet", 3, INF),
                                  ("symmetric", 3, 2), ("universal", INF, INF)):
            system = named_system(family, n)
            assert system.rank == r
            for i in range(1, r + 1):
                for j in range(1, r + 1):
                    if i == j:
                        assert system.exponent(i, j) == 1
                    elif abs(i - j) == 1:
                        assert system.exponent(i, j) == near
                    else:
                        assert system.exponent(i, j) == far

    def test_bad_n(self):
        with pytest.raises(CoxeterError):
            named_system("twin", 1)

    def test_w_nm_needs_bond(self):
        with pytest.raises(CoxeterError):
            named_system("w_nm", 4)

    @pytest.mark.parametrize("n", range(4, 8))
    def test_family_of_named_systems(self, n):
        for family in ("twin", "triplet", "symmetric", "universal"):
            assert family_of(named_system(family, n)) == family
        assert family_of(named_system("w_nm", n, m=3)) == "symmetric"
        assert family_of(named_system("w_nm", n, m=4)) is None

    def test_family_of_small_ranks_is_tried_in_order(self):
        # rank 1 fits every pattern; rank 2 has no distant pair
        assert family_of(symmetric(2)) == "twin"
        assert family_of(universal(3)) == "twin"
        assert family_of(symmetric(3)) == "triplet"

    @pytest.mark.parametrize("family", ["twin", "triplet", "symmetric",
                                        "universal"])
    def test_bond_is_only_for_w_nm(self, family):
        # named_system("twin", 4, m=5) once returned twin(4)
        with pytest.raises(CoxeterError, match="m is only for the w_nm"):
            named_system(family, 4, m=5)

    def test_racg_from_graph(self):
        # racg_system is the one way in; named_system has no racg family
        assert racg_system(simple_graph(3, [(1, 3)])) == twin(4)
        with pytest.raises(CoxeterError, match="unknown family 'racg'"):
            named_system("racg", 4)


class TestRelators:
    def test_squares_then_finite_bonds_in_pair_order(self):
        system = build_system([[1, 3, 2, INF], [3, 1, INF, 2],
                               [2, INF, 1, 3], [INF, 2, 3, 1]])
        assert relators(system) == (
            (1, 1), (2, 2), (3, 3), (4, 4),
            (1, 2) * 3, (1, 3) * 2, (2, 4) * 2, (3, 4) * 3)


def _accepts(moves, word):
    """Does the automaton read the word (letters 1..rank) to its end?"""
    state = 0
    for letter in word:
        state = dict(moves[state]).get(letter - 1)
        if state is None:
            return False
    return True


def _shortlex_least_words(system, length):
    """The shortlex-least word of each element of W of length at most
    ``length``, found by listing the words in shortlex order and keeping
    the first of each exact Tits matrix."""
    seen, out = set(), []
    for n in range(length + 1):
        for word in itertools.product(range(1, system.rank + 1), repeat=n):
            g = evaluate(system, word)
            if g not in seen:
                seen.add(g)
                out.append(word)
    return out


class TestShortlexMoves:
    @pytest.mark.parametrize("system", [
        twin(5), triplet(5), symmetric(5), universal(4), twin(6),
        build_system([[1, 3, 2, INF], [3, 1, INF, 2],
                      [2, INF, 1, 3], [INF, 2, 3, 1]]),
        build_system([[1, 2, 3, INF, 2], [2, 1, 3, 2, INF],
                      [3, 3, 1, INF, 3], [INF, 2, INF, 1, 2],
                      [2, INF, 3, 2, 1]])],
        ids=["twin5", "triplet5", "symmetric5", "universal4", "twin6",
             "mixed4", "mixed5"])
    def test_accepts_every_shortlex_least_word(self, system):
        moves = shortlex_moves(system.exponents)
        words = _shortlex_least_words(system, 4)
        assert all(_accepts(moves, w) for w in words)
        # the pruning is real: some words of length 2..4 that are no
        # shortlex-least word are turned away
        least = set(words)
        assert any(not _accepts(moves, w)
                   for w in itertools.product(range(1, system.rank + 1),
                                              repeat=3)
                   if w not in least)

    def test_runs_stop_at_the_bond(self):
        # rank 2 with m = 4: 1 2 1 2 is least, 2 1 2 1 equals it, and no
        # alternating word of length 5 is reduced
        moves = shortlex_moves(((1, 4), (4, 1)))
        assert _accepts(moves, (1, 2, 1, 2))
        assert _accepts(moves, (2, 1, 2))
        assert not _accepts(moves, (2, 1, 2, 1))
        assert not _accepts(moves, (1, 2, 1, 2, 1))
        assert not _accepts(moves, (1, 1))

    def test_commuting_letters_come_in_increasing_order(self):
        moves = shortlex_moves(twin(4).exponents)
        assert _accepts(moves, (1, 3))
        assert not _accepts(moves, (3, 1))
        assert _accepts(moves, (3, 2, 1, 2, 1, 2))  # infinite bonds

    def test_a_letter_equal_to_a_smaller_one_is_never_read(self):
        # an order of 1 says s_1 = s_2, so only s_1 is a letter: the
        # states are the words (), 1, 3 and 1 3
        assert shortlex_moves(((1, 1, 2), (1, 1, 2), (2, 2, 1))) == [
            ((0, 1), (2, 2)), ((2, 3),), (), ()]
        assert shortlex_moves(((1, 1), (1, 1))) == [((0, 1),), ()]

    def test_infinite_bonds_keep_the_table_finite(self):
        # the empty word, one state per last letter, one per ordered pair
        assert len(shortlex_moves(universal(6).exponents)) == 1 + 5 + 5 * 4


class TestIsSmall:
    def test_twin_is_small(self):
        assert is_small(twin(5))

    def test_symmetric_is_small(self):
        assert is_small(symmetric(5))

    def test_bond_four_is_not_small(self):
        assert not is_small(build_system([[1, 4], [4, 1]]))


class TestJoinDecomposition:
    def test_complete_graph(self):
        assert racg_join_decomposition(complete_graph(3)) == (3, 0)

    def test_two_isolated_vertices(self):
        assert racg_join_decomposition(simple_graph(2)) == (0, 1)

    def test_twin_graph_not_virtually_abelian(self):
        assert racg_join_decomposition(simple_graph(3, [(1, 3)])) is None

    def test_join_of_k2_and_pair(self):
        # vertices 1,2 complete and joined to 3,4; 3,4 non-adjacent
        graph = simple_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        assert racg_join_decomposition(graph) == (2, 1)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_complement_degree_criterion(self, n):
        for graph in all_graphs(n):
            degree = [0] * (n + 1)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if not graph.has_edge(i, j):
                        degree[i] += 1
                        degree[j] += 1
            expected_nonempty = all(d <= 1 for d in degree[1:])
            result = racg_join_decomposition(graph)
            assert (result is not None) == expected_nonempty
            if result is not None:
                m, k = result
                assert m == sum(1 for d in degree[1:] if d == 0)
                assert m + 2 * k == n

    def test_loop_rejected(self):
        with pytest.raises(CoxeterError):
            simple_graph(2, [(1, 1)])

    @pytest.mark.parametrize("vertices, edges, message", [
        (-1, [], "negative vertex count"),
        (3, [(1, 4)], r"edge \(1,4\) outside 1\.\.3"),
        (3, [(0, 2)], r"edge \(0,2\) outside 1\.\.3")])
    def test_vertex_count_and_edge_range_checked(self, vertices, edges,
                                                 message):
        with pytest.raises(CoxeterError, match=message):
            simple_graph(vertices, edges)


def _format_coxeter_matrix(system):
    """The text ``parse_coxeter_matrix`` reads: first line the rank, then
    one row per line, "inf" for infinity."""
    lines = [str(system.rank)]
    for row in system.exponents:
        lines.append(" ".join("inf" if e is INF else str(e) for e in row))
    return "\n".join(lines) + "\n"


class TestTextFormats:
    def test_matrix_round_trip(self):
        for system in (twin(5), triplet(4), symmetric(3),
                       build_system([[1, INF, 4], [INF, 1, 2], [4, 2, 1]])):
            assert parse_coxeter_matrix(_format_coxeter_matrix(system)) == system

    def test_matrix_format_uses_inf_token(self):
        text = _format_coxeter_matrix(twin(3))
        assert text.splitlines() == ["2", "1 inf", "inf 1"]

    def test_word_round_trip(self):
        for word in ((), (1,), (1, 2, 1, 2)):
            assert parse_word(format_word(word)) == word

    def test_empty_line_is_identity(self):
        assert parse_word("") == ()

    def test_bad_token_names_the_word(self):
        with pytest.raises(CoxeterError, match=r"^bad word '1 x 2'$"):
            parse_word("1 x 2")
        with pytest.raises(CoxeterError, match=r"^bad word '1 2.5'$"):
            parse_word("1 2.5")

    def test_bad_rank_line(self):
        with pytest.raises(CoxeterError):
            parse_coxeter_matrix("x\n1 2\n2 1\n")

    @pytest.mark.parametrize("text, message", [
        ("", "empty matrix file"),
        ("\n  \n", "empty matrix file"),
        ("2\n1 2\n", "expected 2 rows, found 1"),
        ("1\n1\n1\n", "expected 1 rows, found 2"),
        ("2\n1 x\nx 1\n", "bad entry 'x'"),
        ("2\n1 2.0\n2.0 1\n", "bad entry '2.0'")])
    def test_malformed_matrix_file(self, text, message):
        # the text that --matrix FILE reads
        with pytest.raises(CoxeterError, match=f"^{message}$"):
            parse_coxeter_matrix(text)

    def test_letter_out_of_range(self):
        with pytest.raises(CoxeterError):
            twin(3).check_word((1, 5))

    def test_first_bad_letter_is_named(self):
        with pytest.raises(CoxeterError, match=r"^letter 5 outside 1\.\.2$"):
            twin(3).check_word((1, 5, 0, 7))
