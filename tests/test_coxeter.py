import pytest

from smallcox.coxeter import (INF, BadDiagonalError, BadOffDiagonalError,
                              CoxeterError, NonSymmetricMatrixError,
                              all_graphs, build_system, complete_graph,
                              family_of, format_coxeter_matrix, format_word,
                              is_small, named_system,
                              parse_coxeter_matrix, parse_word,
                              racg_join_decomposition, racg_system,
                              simple_graph, symmetric, triplet, twin,
                              universal)


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

    def test_racg_needs_graph(self):
        with pytest.raises(CoxeterError):
            named_system("racg")

    def test_racg_from_graph(self):
        graph = simple_graph(3, [(1, 3)])
        system = named_system("racg", graph=graph)
        assert system == twin(4)


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


class TestTextFormats:
    def test_matrix_round_trip(self):
        for system in (twin(5), triplet(4), symmetric(3),
                       build_system([[1, INF, 4], [INF, 1, 2], [4, 2, 1]])):
            assert parse_coxeter_matrix(format_coxeter_matrix(system)) == system

    def test_matrix_format_uses_inf_token(self):
        text = format_coxeter_matrix(twin(3))
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

    def test_letter_out_of_range(self):
        with pytest.raises(CoxeterError):
            twin(3).check_word((1, 5))

    def test_first_bad_letter_is_named(self):
        with pytest.raises(CoxeterError, match=r"^letter 5 outside 1\.\.2$"):
            twin(3).check_word((1, 5, 0, 7))
