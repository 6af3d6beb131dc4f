import pytest

from smallcox.coxeter import triplet, twin
from smallcox.crystallo import (beta_word, holonomy_via_conjugation,
                                theta_cross_check, theta_faithfulness,
                                theta_generator_matrix)
from smallcox.matrices import Matrix
from smallcox.rewriting import KernelRewriter, quotient_map


class TestThetaGeneratorMatrix:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_involutions_with_small_entries(self, n):
        ident = Matrix.identity(2 * n - 5)
        for k in range(1, n):
            mat = theta_generator_matrix(n, k)
            assert mat.dimension == 2 * n - 5
            assert mat * mat == ident
            assert {e for row in mat.rows for e in row} <= {-1, 0, 1}

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

    def test_rewrites_generators_only(self, monkeypatch):
        calls = []
        direct = KernelRewriter.conjugation_matrix

        def counted(self, word, allow_torsion=False):
            calls.append(tuple(word))
            return direct(self, word, allow_torsion)

        monkeypatch.setattr(KernelRewriter, "conjugation_matrix", counted)
        holonomy_via_conjugation(quotient_map(twin(4), "symmetric"))
        assert calls == [(1,), (2,), (3,)]

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


@pytest.mark.parametrize("n", [4, 5])
def test_theta_cross_check(n):
    assert theta_cross_check(n)
