import tracemalloc
from functools import reduce

import pytest

from smallcox import congruence, crystallo, rewriting
from smallcox.coxeter import named_system, triplet, twin
from smallcox.crystallo import (BasisSpanError, HolonomyReport,
                                LatticeTorsionError, _holonomy,
                                _quotient_label, _subset_tree, _table_tree,
                                beta_word, holonomy_via_conjugation,
                                theta_cross_check, theta_faithfulness,
                                theta_generator_matrix)
from smallcox.congruence import FiniteQuotientMap
from smallcox.matrices import (Matrix, SmithForm, dense_rows, mul_columns,
                               smith_normal_form)
from smallcox.rewriting import (KernelRewriter, _exponent_row, _relator_rows,
                                coset_table, quotient_map)
from test_rewriting import _reidemeister_schreier


class TestThetaGeneratorMatrix:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_involutions_with_small_entries(self, n):
        # sparse columns with one nonzero each, or three for the classes
        # b(k-2), every nonzero +-1
        dim = 2 * n - 5
        ident = [{j: 1} for j in range(dim)]
        for k in range(1, n):
            cols = theta_generator_matrix(n, k)
            assert len(cols) == dim
            assert all(set(col) <= set(range(dim)) for col in cols)
            assert all(len(col) in (1, 3) for col in cols)
            assert all(set(col.values()) <= {-1, 1} for col in cols)
            assert mul_columns(cols, cols) == ident

    def test_the_k_minus_two_classes_gain_a_difference(self):
        # n = 4, basis b0(1), b0(2), b1(2): class 3 negates b(2) and adds
        # b0(2) - b1(2) to b0(1)
        assert theta_generator_matrix(4, 3) == [{0: 1, 1: 1, 2: -1},
                                                {1: -1}, {2: -1}]

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_generator_out_of_range(self, k):
        with pytest.raises(ValueError):
            theta_generator_matrix(5, k)


class TestBetaWord:
    def test_core_word(self):
        assert beta_word(5, 1, 0) == (2, 1, 2, 1)
        assert beta_word(5, 3, 0) == (4, 3, 4, 3)

    def test_conjugated_words(self):
        assert beta_word(5, 2, 1) == (1, 3, 2, 3, 2, 1)
        assert beta_word(5, 3, 1) == (2, 4, 3, 4, 3, 2)
        assert beta_word(5, 3, 2) == (1, 2, 4, 3, 4, 3, 2, 1)

    @pytest.mark.parametrize("j, p", [(0, 0), (4, 0), (2, 2), (2, -1)])
    def test_out_of_range(self, j, p):
        with pytest.raises(ValueError):
            beta_word(5, j, p)


def _mask_products_report(n):
    """Brute-force oracle: multiply out the closed-form matrices over all
    2^(n-1) subsets by bit mask, and list the trivial ones by mask."""
    dim = 2 * n - 5
    ident = Matrix.identity(dim)
    mats = [Matrix(dense_rows(theta_generator_matrix(n, k), dim))
            for k in range(1, n)]
    products = [ident]
    for mask in range(1, 2 ** (n - 1)):
        low = (mask & -mask).bit_length() - 1
        products.append(products[mask & (mask - 1)] * mats[low])
    witnesses = tuple(tuple(k + 1 for k in range(n - 1) if mask >> k & 1)
                      for mask in range(1, 2 ** (n - 1))
                      if products[mask] == ident)
    return witnesses, 2 ** (n - 1), 2 * n - 5, f"T{n}/T{n}''"


@pytest.mark.parametrize("n", range(3, 11))
def test_theta_faithfulness_matches_the_mask_products(n):
    report = theta_faithfulness(n)
    assert (report.kernel_witnesses, report.holonomy_order, report.dimension,
            report.quotient) == _mask_products_report(n)
    assert report.faithful == (not report.kernel_witnesses)


@pytest.mark.parametrize("n", range(2, 13))
def test_subset_tree_is_the_tree_of_the_mod2_coset_table(n):
    # the generic route stays the reference: the subsets in shortlex
    # order are the transversal of the mod-2 coset table, and each
    # subset's parent is the coset that its last letter acts on
    table = coset_table(quotient_map(twin(n), "mod2_abelian"))
    words, parents = _subset_tree(n)
    assert tuple(words) == table.transversal
    assert len(parents) == len(words) == 2 ** (n - 1)
    assert parents[0] == 0
    for c in range(1, table.count):
        assert parents[c] == table.action[c][words[c][-1] - 1]


def test_theta_faithfulness_builds_no_quotient_map(monkeypatch):
    # the closed-form walk runs over the subsets of classes, so it needs
    # no quotient map, no orbit and no coset table, wherever those names
    # are bound
    def refuse(*args, **kwargs):
        raise AssertionError("quotient map, orbit or coset table built")

    for module in (congruence, rewriting, crystallo):
        for name in ("quotient_map", "orbit", "coset_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    report = theta_faithfulness(8)
    assert report == HolonomyReport(quotient="T8/T8''", dimension=11,
                                    holonomy_order=128, faithful=True,
                                    kernel_witnesses=())


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_theta_faithful(n):
    report = theta_faithfulness(n)
    assert report.faithful and not report.kernel_witnesses
    assert report.dimension == 2 * n - 5
    assert report.holonomy_order == 2 ** (n - 1)


class TestHolonomyViaConjugation:
    def test_twin_three_has_rotation_kernel(self):
        report = holonomy_via_conjugation(quotient_map(twin(3), "symmetric"))
        assert not report.faithful
        assert report.dimension == 1
        assert report.kernel_witnesses == ((1, 2), (2, 1))

    def test_pure_twin_four(self):
        report = holonomy_via_conjugation(quotient_map(twin(4), "symmetric"))
        assert report.faithful and report.dimension == 7
        assert report.holonomy_order == 24
        assert report.quotient == "T4/PT4'"

    def test_report_builds_by_keyword(self):
        report = HolonomyReport(quotient="T4/PT4'", dimension=7,
                                holonomy_order=24, faithful=True,
                                kernel_witnesses=())
        assert report.lattice_torsion == ()
        assert report == holonomy_via_conjugation(
            quotient_map(twin(4), "symmetric"))

    @pytest.mark.parametrize("family,label", [("twin", "T2/PT2'"),
                                              ("triplet", "L2/PL2'"),
                                              ("symmetric", "S2/PS2'")])
    def test_rank_one_label_follows_the_family_asked_for(self, family, label):
        # the three rank-1 systems are one system, which family_of names twin
        qmap = quotient_map(named_system(family, 2), "symmetric")
        assert holonomy_via_conjugation(qmap, family).quotient == label
        assert holonomy_via_conjugation(qmap).quotient == "T2/PT2'"

    def test_rewrites_generators_only(self, monkeypatch):
        calls = []
        direct = KernelRewriter.conjugation_columns

        def counted(self, word):
            calls.append(tuple(word))
            return direct(self, word)

        monkeypatch.setattr(KernelRewriter, "conjugation_columns", counted)
        holonomy_via_conjugation(quotient_map(twin(4), "symmetric"))
        assert calls == [(1,), (2,), (3,)]

    @pytest.mark.parametrize("family,rank", [(twin, 31), (triplet, 61)])
    def test_never_builds_a_dense_conjugation_matrix(self, monkeypatch,
                                                     family, rank):
        # the walk reads the generators' sparse columns, so no rank x rank
        # matrix is ever made
        def dense(self, word):
            raise AssertionError("dense conjugation matrix built")

        monkeypatch.setattr(KernelRewriter, "conjugation_matrix", dense)
        report = holonomy_via_conjugation(
            quotient_map(family(5), "symmetric"))
        assert report.faithful and report.dimension == rank

    def test_never_builds_the_dense_transform(self, monkeypatch):
        # the PT_5 holonomy reads V's sparse columns only, so the dense
        # ncols x ncols view is never read
        made, reads = [], []
        dense = SmithForm.v

        class Recorded(KernelRewriter):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(crystallo, "KernelRewriter", Recorded)
        monkeypatch.setattr(SmithForm, "v", property(
            lambda sm: reads.append(sm) or dense.fget(sm)))
        assert holonomy_via_conjugation(
            quotient_map(twin(5), "symmetric")).faithful
        (rewriter,) = made
        assert rewriter.smith.columns is not None
        assert reads == []

    def test_never_builds_the_presentation(self, monkeypatch):
        # the lattice comes from the cells of the coset graph, and its
        # rank and torsion from the one Smith form with the transform
        made, smith_calls = [], []

        class Recorded(KernelRewriter):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def counted(*args, **kwargs):
            smith_calls.append(kwargs.get("want_transform", False))
            return smith_normal_form(*args, **kwargs)

        monkeypatch.setattr(crystallo, "KernelRewriter", Recorded)
        monkeypatch.setattr(rewriting, "smith_normal_form", counted)
        assert holonomy_via_conjugation(
            quotient_map(twin(5), "symmetric")).faithful
        (rewriter,) = made
        assert "presentation" not in rewriter.__dict__
        assert smith_calls == [True]

    @pytest.mark.parametrize("qmap", [
        quotient_map(twin(3), "symmetric"), quotient_map(twin(4), "symmetric"),
        quotient_map(twin(5), "symmetric"),
        quotient_map(triplet(4), "symmetric"),
        quotient_map(triplet(5), "symmetric"),
        quotient_map(twin(4), "modular", 3), quotient_map(twin(3), "modular", 2),
        quotient_map(twin(4), "trivial"), quotient_map(twin(5), "mod2_abelian"),
        quotient_map(triplet(4), "mod2_abelian"),
        FiniteQuotientMap(twin(4), "custom", 0, lambda x, k: x ^ (k < 2))],
        ids=["PT3", "PT4", "PT5", "PL4", "PL5", "T4-mod3", "T3-mod2",
             "T4-trivial", "T5-mod2", "L4-mod2", "T4-onto-Z2"])
    def test_matches_the_presentation_reference(self, qmap):
        assert holonomy_via_conjugation(qmap) == _holonomy_reference(qmap)

    def test_pure_triplet_four(self):
        report = holonomy_via_conjugation(
            quotient_map(triplet(4), "symmetric"))
        assert report.faithful and report.dimension == 5
        assert report.holonomy_order == 24
        assert report.quotient == "L4/PL4'"

    def test_modular_map_labels_its_modulus(self):
        # the mod-3 kernel is PT_4, so only the label differs from the
        # symmetric route
        report = holonomy_via_conjugation(
            quotient_map(twin(4), "modular", 3))
        assert report.faithful and report.dimension == 7
        assert report.quotient == "T4/T4[3]'"


def _holonomy_reference(qmap):
    """``holonomy_via_conjugation`` with the lattice read off the full
    Reidemeister-Schreier presentation: the Smith transform of its
    distinct relator rows, one column per Schreier generator, and each
    conjugate rewritten into those columns."""
    table = coset_table(qmap)
    pres, pairs, rewrite = _reidemeister_schreier(qmap)
    sm = smith_normal_form(_relator_rows(pres), pres.generators,
                           want_transform=True)
    rank = len(sm.free_rows)
    coords = [[] for _ in range(pres.generators)]
    for i, col in enumerate(sm.columns[len(sm.divisors):]):
        for t, x in col.items():
            coords[t].append((i, x))

    def free(word):
        out = {}
        for t, x in _exponent_row(rewrite(word)).items():
            for i, v in coords[t]:
                out[i] = out.get(i, 0) + x * v
        return out

    def schreier_word(t):
        c, y = pairs[t]
        ubar = table.transversal[table.action[c][y - 1]]
        return table.transversal[c] + (y,) + tuple(reversed(ubar))

    gens = []
    for y in range(1, qmap.system.rank + 1):
        cols = []
        for lift in sm.free_rows:
            col = {}
            for t, x in lift.items():
                for i, v in free((y,) + schreier_word(t) + (-y,)).items():
                    col[i] = col.get(i, 0) + x * v
            cols.append({i: v for i, v in col.items() if v})
        gens.append(cols)
    return _holonomy(_quotient_label(qmap, None), *_table_tree(table), gens,
                     rank, sm.torsion)


def _conjugation_walk(qmap):
    """The arguments that ``holonomy_via_conjugation`` hands ``_holonomy``,
    with the generators' columns listed."""
    rewriter = KernelRewriter(qmap)
    gens = [rewriter.conjugation_columns((y,))
            for y in range(1, qmap.system.rank + 1)]
    return (_quotient_label(qmap, None), *_table_tree(rewriter.table), gens,
            rewriter.rank)


def _product_witnesses(words, gens, dim):
    """Brute-force reference: every coset but the first whose matrix,
    multiplied out along its word, is the identity."""
    ident = [{j: 1} for j in range(dim)]
    return tuple(word for word in words[1:]
                 if reduce(mul_columns, [gens[x - 1] for x in word]) == ident)


def _walks():
    for system, kind, *modulus in [(twin(3), "symmetric"),
                                   (twin(4), "symmetric"),
                                   (triplet(4), "symmetric"),
                                   (twin(4), "modular", 3),
                                   (triplet(4), "mod2_abelian")]:
        yield _conjugation_walk(quotient_map(system, kind, *modulus))
    for n in range(3, 9):
        yield (f"T{n}/T{n}''", *_subset_tree(n),
               [theta_generator_matrix(n, k) for k in range(1, n)], 2 * n - 5)
    # the trivial action on Z^2, so every coset of S_3 is a witness
    yield ("S3", *_table_tree(coset_table(quotient_map(twin(3), "symmetric"))),
           [[{0: 1}, {1: 1}]] * 2, 2)


@pytest.mark.parametrize("walk", list(_walks()), ids=lambda walk: walk[0])
def test_kernel_witnesses_match_the_full_products(walk):
    label, words, parents, gens, dim = walk
    report = _holonomy(*walk)
    assert report.kernel_witnesses == _product_witnesses(words, gens, dim)
    assert report.holonomy_order == len(words)
    assert report.faithful == (not report.kernel_witnesses)


def test_the_reference_walks_cover_every_kind_of_kernel():
    # some walks are faithful, T_3's kernel is its rotations, L_4 over
    # L_4'' has no free part, so every coset is a witness, and so is
    # every coset of the trivial action
    reports = {walk[0]: _holonomy(*walk) for walk in _walks()}
    assert reports["T4/PT4'"].faithful
    assert reports["T3/PT3'"].kernel_witnesses == ((1, 2), (2, 1))
    assert reports["L4/L4''"].dimension == 0
    assert len(reports["L4/L4''"].kernel_witnesses) == \
        reports["L4/L4''"].holonomy_order - 1
    assert len(reports["S3"].kernel_witnesses) == 5


class TestRowWalk:
    @pytest.mark.parametrize("flip", [[{0: -1}, {0: 1, 1: 1}],
                                      [{0: 1, 1: 1}, {1: -1}]])
    def test_a_later_row_rejects_a_coset_that_fixes_an_earlier_one(
            self, flip):
        # generator 1 is an involution that fixes one basis row and
        # moves the other: rows (-1, 1) and (0, 1), or (1, 0) and
        # (1, -1); in whichever order the walk takes the rows, one of
        # the two keeps cosets (1,) and (1, 2) as candidates past the
        # first row and rejects them only at the second; generators go
        # in as sparse columns
        qmap = quotient_map(twin(3), "mod2_abelian")
        report = _holonomy("T3/T3''", *_table_tree(coset_table(qmap)),
                           [flip, [{0: 1}, {1: 1}]], 2)
        assert report.kernel_witnesses == ((2,),)
        assert not report.faithful

    def test_the_walk_forms_no_matrix_product(self, monkeypatch):
        # the walk carries sparse rows only, so neither a faithful action
        # nor a kernel calls for a column product; _holonomy is called
        # directly, since theta_faithfulness checks its generators with
        # column products
        theta = [theta_generator_matrix(8, k) for k in range(1, 8)]
        walks = [_conjugation_walk(quotient_map(twin(5), "symmetric")),
                 ("T8/T8''", *_subset_tree(8), theta, 11)]
        control = _conjugation_walk(quotient_map(twin(3), "symmetric"))
        calls = []
        full = crystallo.mul_columns

        def counted(a, b):
            calls.append((a, b))
            return full(a, b)

        monkeypatch.setattr(crystallo, "mul_columns", counted)
        for walk in walks:
            assert _holonomy(*walk).faithful
        assert calls == []
        # the control: the rotation kernel of T_3 is found row by row,
        # with no product either
        report = _holonomy(*control)
        assert report.kernel_witnesses == ((1, 2), (2, 1))
        assert calls == []

    def test_the_walk_holds_less_than_a_dense_row_per_coset(self):
        # the walk holds one sparse row per coset it walks, a few
        # nonzeros each, so its peak stays below the count x dim slots
        # that one dense row per coset of PT_6 would take (720 x 111 x 8
        # bytes)
        walk = _conjugation_walk(quotient_map(twin(6), "symmetric"))
        label, words, parents, gens, dim = walk
        tracemalloc.start()
        try:
            report = _holonomy(*walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.faithful
        assert peak < len(words) * dim * 8


@pytest.mark.parametrize("n", range(4, 10))
def test_theta_cross_check(n):
    assert theta_cross_check(n)


def test_closed_form_route_builds_no_dense_conjugation_matrix(monkeypatch):
    # the cross-check compares sparse columns, and the faithfulness walk
    # reads the closed forms as columns, so neither asks for the dense
    # view of a conjugation action
    def dense(self, word):
        raise AssertionError("dense conjugation matrix built")

    monkeypatch.setattr(KernelRewriter, "conjugation_matrix", dense)
    assert theta_cross_check(5)
    assert theta_faithfulness(8).faithful


class TestThetaFailures:
    """Each way the closed-form route can fail, forced by monkeypatching
    on n = 4, whose lattice has rank 3."""

    def test_cross_check_reports_a_mismatch(self, monkeypatch):
        monkeypatch.setattr(crystallo, "theta_generator_matrix",
                            lambda n, k: [{j: 1} for j in range(2 * n - 5)])
        assert theta_cross_check(4) is False

    def test_cross_check_rejects_a_basis_of_another_rank(self, monkeypatch):
        basis = crystallo._basis
        monkeypatch.setattr(crystallo, "_basis", lambda n: basis(n)[:-1])
        with pytest.raises(BasisSpanError, match="rank 3, expected 2"):
            theta_cross_check(4)

    def test_cross_check_rejects_a_dictionary_that_spans_less(
            self, monkeypatch):
        monkeypatch.setattr(crystallo, "beta_word",
                            lambda n, j, p: (2, 1, 2, 1))
        with pytest.raises(BasisSpanError, match="not a lattice basis"):
            theta_cross_check(4)

    def test_cross_check_rejects_torsion(self, monkeypatch):
        # the commutator subgroup of L_4 abelianizes to Z_3 + Z_3
        monkeypatch.setattr(crystallo, "twin", triplet)
        with pytest.raises(LatticeTorsionError) as exc:
            theta_cross_check(4)
        assert exc.value.torsion == (3, 3)

    def test_faithfulness_rejects_a_non_involution(self, monkeypatch):
        monkeypatch.setattr(crystallo, "theta_generator_matrix",
                            lambda n, k: [{0: 1}, {0: 1, 1: 1}])
        with pytest.raises(ArithmeticError,
                           match="class 1 is not an involution"):
            theta_faithfulness(4)

    def test_faithfulness_rejects_classes_that_do_not_commute(
            self, monkeypatch):
        swap, flip = [{1: 1}, {0: 1}], [{0: -1}, {1: 1}]
        monkeypatch.setattr(crystallo, "theta_generator_matrix",
                            lambda n, k: swap if k == 1 else flip)
        with pytest.raises(ArithmeticError, match="fail to commute"):
            theta_faithfulness(4)

    def test_faithfulness_checks_every_pair(self, monkeypatch):
        # only classes 3 and 5 fail to commute, so a check that stopped
        # at the pairs of class 1 would let this through
        mats = {3: [{1: 1}, {0: 1}], 5: [{0: -1}, {1: 1}]}
        monkeypatch.setattr(crystallo, "theta_generator_matrix",
                            lambda n, k: mats.get(k, [{0: 1}, {1: 1}]))
        with pytest.raises(ArithmeticError,
                           match="^generator classes fail to commute$"):
            theta_faithfulness(6)
