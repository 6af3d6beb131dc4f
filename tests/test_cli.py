import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from smallcox import cli, crystallo
from smallcox import verify as verify_module
from smallcox.cli import dispatch
from smallcox.coxeter import INF, racg_system, simple_graph, triplet, twin
from smallcox.rewriting import Presentation, abelian_invariants, quotient_map
from smallcox.matrices import format_matrix
from smallcox.tits import evaluate
from smallcox.verify import Claim, verify

SRC = Path(__file__).resolve().parents[1] / "src"


# sha256 of each suite's JSON record (claim ids, descriptions, expected
# and computed values; no timings), so a refactor of a claim's route must
# leave every claim line as it is
SUITE_RECORD_SHA256 = {
    "tits": "3971dca599f904552da15bff4b0da02d4ae6cc42a59f72d5409ad41a3fd7fcec",
    "congruence":
        "925eaf4c4284265427201c01e385a590083ba2055a8fa8a36c666df5508e50ca",
    "rewriting":
        "fdaf5a19fe7c018b72f581a0f88a24eaf0605baa80d33ad5c8b624a631ea1ebf",
    "crystallo":
        "b39558b6be1ce2c6d0e7685063b594986f570581036dbad595530c64c9047621",
    "complexes":
        "30f06d50955ed42b80bac278be4cb0b334e670034ddf09ab568ba723f6674cce",
}


@pytest.mark.parametrize("suite", ["tits", "congruence", "rewriting",
                                   "crystallo", "complexes"])
def test_suite_passes(suite):
    report = verify(suite)
    assert report.passed, [c for c in report.claims if not c.ok]
    record = json.dumps(report.to_record(), sort_keys=True,
                        separators=(",", ":"))
    assert hashlib.sha256(record.encode()).hexdigest() == \
        SUITE_RECORD_SHA256[suite]


def test_verify_json_prints_the_pinned_record(capsys):
    assert dispatch(["verify", "--suite", "tits", "--json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert hashlib.sha256(out[:-1].encode()).hexdigest() == \
        SUITE_RECORD_SHA256["tits"]


def test_suites_are_the_builder_table():
    assert verify_module.SUITES == ("tits", "congruence", "rewriting",
                                    "crystallo", "complexes", "frontier",
                                    "all")
    assert verify_module.SUITES[:-1] == tuple(verify_module._SUITE_BUILDERS)


def test_all_leaves_out_the_frontier(monkeypatch):
    # the frontier's claims take seconds and a few hundred MB, so "all"
    # runs every other suite, in table order, and CI runs the frontier
    # on its own
    ran = []
    for name in verify_module._SUITE_BUILDERS:
        monkeypatch.setitem(verify_module._SUITE_BUILDERS, name,
                            lambda name=name: ran.append(name) or [])
    assert verify("all").claims == ()
    assert ran == ["tits", "congruence", "rewriting", "crystallo",
                   "complexes"]
    verify("frontier")
    assert ran[-1] == "frontier"


def test_image_exits_zero(capsys):
    assert dispatch(["image", "--family", "twin", "-n", "4", "-m", "3"]) == 0
    assert capsys.readouterr().out == "order 24\n"


def test_budget_exits_one(capsys):
    argv = ["image", "--family", "twin", "-n", "4", "-m", "5", "--cap", "10"]
    assert dispatch(argv) == 1
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "image --family twin -n 4 -m 3 --cap 0",
    "quotient --check alternating -n 4 -m 5 --cap 0",
    "subgroup --family twin -n 4 --map symmetric --cap -1",
    "abelianize --family twin -n 4 --map symmetric --cap 0"])
def test_non_positive_cap_exits_one(line, capsys):
    assert dispatch(line.split()) == 1
    assert "cap must be positive" in capsys.readouterr().err


def test_alternating_level_zero_names_the_level_bound(capsys):
    # 3 divides 0 as well, but m >= 2 is the bound that m = 0 misses
    assert dispatch("quotient --check alternating -n 4 -m 0".split()) == 1
    assert "need m >= 2, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("abelianize --family twin -n 4 --map mod2 --map-mod 3",
     "--map-mod is only for --map modular"),
    ("subgroup --family twin -n 4 --map symmetric --map-mod 3",
     "--map-mod is only for --map modular"),
    ("image --family twin -n 4 --bond 3 -m 3",
     "--bond is only for --family w_nm"),
    ("tits --family triplet -n 3 --bond 2 --word 1",
     "--bond is only for --family w_nm"),
    ("image --matrix M --family triplet -n 7 -m 3",
     "--family and -n are not for --matrix"),
    ("subgroup --matrix M -n 4 --map symmetric",
     "--family and -n are not for --matrix"),
    ("tits --matrix M --family twin --word 1",
     "--family and -n are not for --matrix")])
def test_stray_flags_exit_one(line, message, capsys, tmp_path):
    # each flag was once read only with --map modular, --family w_nm or
    # without --matrix, and silently dropped otherwise
    matrix = tmp_path / "twin4.txt"
    matrix.write_text("3\n1 inf 2\ninf 1 inf\n2 inf 1\n")
    argv = [str(matrix) if a == "M" else a for a in line.split()]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("line", ["abelianize --map mod2",
                                  "abelianize --family twin --map mod2",
                                  "abelianize -n 4 --map mod2"])
def test_a_system_is_required(line, capsys):
    assert dispatch(line.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give --family with -n, or --matrix FILE\n"


def test_modular_map_needs_its_modulus(capsys):
    assert dispatch("abelianize --family twin -n 4 --map modular".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --map modular needs --map-mod M\n"


@pytest.mark.parametrize("quotient,label", [("pure-twin", "T2/PT2'"),
                                            ("pure-triplet", "L2/PL2'")])
def test_rank_one_holonomy_names_the_family_asked_for(quotient, label, capsys):
    assert dispatch(["holonomy", "--quotient", quotient, "-n", "2",
                     "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["quotient"] == label


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        dispatch(["image", "--family", "twin", "-n", "4"])
    assert exc.value.code == 2


def test_parser_is_built_once(monkeypatch, capsys):
    real = cli.build_parser
    calls = []

    def counting_build():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    argv = ["image", "--family", "twin", "-n", "4", "-m", "3"]
    assert dispatch(argv) == 0
    assert dispatch(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == "order 24\n" * 2


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["image", "--family", "twin", "-n", "4"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert dispatch(["image", "--family", "twin", "-n", "4", "-m", "3"]) == 0
    assert capsys.readouterr().out == "order 24\n"


def test_word_file_does_not_leak_into_the_next_call(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("1 2 1 3\n")
    argv = ["tits", "--family", "twin", "-n", "4"]
    assert dispatch(argv + ["--word-file", str(path)]) == 0
    first = capsys.readouterr().out
    assert dispatch(argv + ["--word", "1 2"]) == 0
    second = capsys.readouterr().out
    assert second == format_matrix(evaluate(twin(4), (1, 2)).rows)
    assert first == format_matrix(evaluate(twin(4), (1, 2, 1, 3)).rows)
    assert first != second


def test_rank_zero_matrix_takes_the_mod2_map(tmp_path, capsys):
    # no generator, so no odd-bond class: the mod-2 abelianization is the
    # trivial group, as every other map already gives for rank 0
    matrix = tmp_path / "rank0.txt"
    matrix.write_text("0\n")
    flags = ["--matrix", str(matrix), "--map", "mod2"]
    assert dispatch(["abelianize"] + flags) == 0
    assert capsys.readouterr().out == "0\n"
    assert dispatch(["subgroup"] + flags + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "cosets": 1, "generators": 0, "relators": []}


def test_failed_claim_exits_one(monkeypatch, capsys):
    failing = Claim("always-false", "a claim that fails", "1", "2", False, 0.0)
    monkeypatch.setitem(verify_module._SUITE_BUILDERS, "tits",
                        lambda: [failing])
    assert dispatch(["verify", "--suite", "tits"]) == 1
    assert "FAIL suite tits: 0/1 claims" in capsys.readouterr().out


def test_raising_claim_is_a_fail_line(monkeypatch, capsys):
    # one crystallo route raises: its claim is a FAIL line carrying the
    # error, and every other claim of the suite still runs and prints
    def broken(n):
        raise crystallo.BasisSpanError("b-class dictionary is not a "
                                       "lattice basis")

    monkeypatch.setattr(crystallo, "theta_cross_check", broken)
    assert dispatch(["verify", "--suite", "crystallo"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" in captured.err
    lines = captured.out.splitlines()
    assert lines[-1] == "FAIL suite crystallo: 9/10 claims"
    failed = [line for line in lines[:-1] if not line.startswith("PASS ")]
    assert failed == [
        "FAIL theta-cross-check: closed-form holonomy matches the "
        "conjugation route, n = 4, 5, 6 [computed error: BasisSpanError: "
        "b-class dictionary is not a lattice basis]"]


def test_torsion_lattice_is_a_fail_line(monkeypatch):
    # every holonomy claim routed to L_4 over L_4'' (Z_3 + Z_3, so no
    # free part): the computed value names the torsion, nothing raises
    real = crystallo.holonomy_via_conjugation
    monkeypatch.setattr(
        crystallo, "holonomy_via_conjugation",
        lambda qmap: real(quotient_map(triplet(4), "mod2_abelian")))
    claims = {c.claim_id: c for c in verify("crystallo").claims}
    claim = claims["holonomy-pure-twin-4"]
    assert not claim.ok
    assert claim.computed == "faithful=False dim=0 torsion=(3, 3)"
    assert claims["holonomy-twin-second-commutator"].ok


def test_json_is_byte_identical(capsys):
    argv = ["quotient", "--check", "alternating", "-n", "4", "-m", "5",
            "--json"]
    outputs = []
    for _ in range(2):
        assert dispatch(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["kernel_order"] == 12


# sha256 of stdout for command lines that cover every quotient kind and
# the cell presentation, Tietze, Smith normal form, holonomy, subquotient
# and face census layers; the n = 3 holonomy lines print kernel witnesses
# and a dimension-0 lattice; a refactor must leave these bytes as they are
PINNED_STDOUT = {
    "subgroup --family triplet -n 5 --map symmetric --simplify":
        "f174bd9882749531b45ac76ee809cb3435ce6dc98c5cda3bd1ed3f373986a349",
    "subgroup --family twin -n 4 --map modular --map-mod 3":
        "a117ca38f944f9fec28a585cf1207374d51dfbf0133f5ccdb5014394fd9dfe88",
    "subgroup --family twin -n 5 --map mod2 --json":
        "e0cd58b7503be516f8ec9e8e467ead608d30194ae6bb43f69a125b817d5d4040",
    "abelianize --family twin -n 5 --map symmetric":
        "17c3650afa3601fec90ff7913021bf51917251a164cf88fa4a5886abfd3ed268",
    "abelianize --family triplet -n 6 --map mod2":
        "b932e5b232f035a38673737ff877583462b3744fe355a1c4875bff2535280a6e",
    "abelianize --family twin -n 5 --map modular --map-mod 3":
        "17c3650afa3601fec90ff7913021bf51917251a164cf88fa4a5886abfd3ed268",
    "abelianize --family triplet -n 4 --map modular --map-mod 4":
        "18b3507055dbe3dff4797182b960b5c2fffa237f730dc8b67e17f8311d7c5cf5",
    "holonomy --quotient pure-twin -n 5 --json":
        "369a404778dcf9b534763e98a7a62a341e8a292bb5065c1065ed3f869fb2f9de",
    "holonomy --quotient pure-triplet -n 4":
        "74cc661544758837b784290895c27497219af94b23d8ef421344b2fff2a8b46a",
    "holonomy --quotient pure-triplet -n 5":
        "503105080f26eaef81d2dec11f6fc3ebc1d3afd157cb39d37d649d205a227194",
    "holonomy --quotient second-commutator -n 10":
        "58ded8dd8add463bd04de403f0732a0a7cfa8e0742a9c4140ee54631dc10ff20",
    "holonomy --quotient pure-twin -n 3":
        "16d379e7d3e34a599016be642bdbb7715c4c1ccbbf86962513dda38f65ada6e2",
    "holonomy --quotient pure-triplet -n 3":
        "099eeac6691d700c0af91a0f314d2f28bcbd485df9500371ed14d2318a37964c",
    "holonomy --quotient second-commutator -n 3":
        "d91906ee492695380b2daee57aed021f75ae996deb04ff8e0ad856a9dd4f4dc4",
    "quotient --check product -n 4 -m 5":
        "1f605bae39f30b14af3816fb725cb7ab64b520d31f4c04125e4a73929c6107fb",
    "quotient --check alternating -n 5 -m 4":
        "27c72f06b6cad6fe49308c87bb6ebb2bc9d1633d49b6722610132848d5c1d0dd",
    "quotient --check alternating -n 4 -m 7":
        "1d92fadeb45c0cf84e1f52fb68e837ace9dc4c15b1f2e8408e058c7d8f4ab188",
    "quotient --check even-vectors -n 6 -m 3":
        "3a614bf04a9528ca632c1843288a434fa5f44220e7db3e304274a9787ff9617c",
    "abelianize --family twin -n 6 --map symmetric":
        "745fa7c1b7d60c47d6345916a8d716a40f046f3be686754c5f720d2ac9775af2",
    "abelianize --family triplet -n 6 --map symmetric":
        "a1f16ed3adced2ca81ac895eb1a4c36da4cb9c2242031ad0ab22156ac8290198",
    "subgroup --family twin -n 5 --map symmetric --simplify":
        "8ddc92b53070405bdd4ff5cbc43efc3e9a54bf4260ef178fff52c5575949aaee",
    "subgroup --family twin -n 6 --map mod2 --simplify":
        "6629d1f6dae12d265ea566c929c98883d5ef2e0f5474244d36fcffab7655e4b7",
    "permutahedron -n 8":
        "2a36e36e70cf63c75e1bc011f4284b62f1074e26fd3ebe46cf389334dd6682de",
    "permutahedron -n 8 --json":
        "8a4beb4fea276b561bdc0997c8714f557632e5f87701605cf96693d4a9e43f88",
    "permutahedron --table":
        "ae61fcd316acff6490ac00ddd2efdc11c900b02c4fa5a5c95eab02a9bcac2568",
    "quotient --check alternating -n 4 -m 2":
        "90c3d59e474ace4d20c97091611f68e39b8a8cfa72fd01d1aeb51395fe522803",
    "quotient --check alternating -n 5 -m 2":
        "29fcf3f62e143963bf5920e424b2be308d7407d3fa1c022e17b862ba165770d6",
    "quotient --check even-vectors -n 4 -m 3":
        "4fe4ff877d28d61ad536da55c7213fa035d24ea1fe582fcc558135db02501e47",
    "holonomy --quotient second-commutator -n 4":
        "79052cc1a34241a33d66becac07ade3d0aafc189166e99c3a7964102efb66cdc",
    "holonomy --quotient second-commutator -n 12 --json":
        "fd27e5ac2fbec18388e7baccb29396acb5585b9eb216b6b3ed7d443d5c6afe6b",
}


@pytest.mark.parametrize("line", PINNED_STDOUT)
def test_stdout_is_pinned(line, capsys):
    assert dispatch(line.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[line]


def _printed_presentation(out: str, as_json: bool) -> Presentation:
    """The presentation that ``subgroup`` printed, read back."""
    if as_json:
        record = json.loads(out)
        return Presentation(record["generators"],
                            tuple(map(tuple, record["relators"])))
    cosets, gens, *rels = out.splitlines()
    assert cosets.startswith("cosets ") and gens.startswith("gens ")
    return Presentation(int(gens.split()[1]), tuple(
        tuple(int(tok) for tok in rel.split()) for rel in rels))


@pytest.mark.parametrize("line", [line for line in PINNED_STDOUT
                                  if line.startswith("subgroup ")])
def test_subgroup_pin_has_the_abelianize_invariants(line, capsys):
    # the printed cell presentation, simplified or not, has the abelian
    # invariants that abelianize prints for the same kernel
    argv = line.split()
    assert dispatch(argv) == 0
    pres = _printed_presentation(capsys.readouterr().out, "--json" in argv)
    kernel = [a for a in argv[1:] if a not in ("--simplify", "--json")]
    assert dispatch(["abelianize"] + kernel) == 0
    assert f"{abelian_invariants(pres)}\n" == capsys.readouterr().out


def test_right_angled_matrix_subgroup_matches_abelianize(tmp_path, capsys):
    matrix = tmp_path / "racg.txt"
    matrix.write_text(_right_angled_matrix(3, 5))
    kernel = ["--matrix", str(matrix), "--map", "modular", "--map-mod", "3"]
    assert dispatch(["subgroup", "--json"] + kernel) == 0
    pres = _printed_presentation(capsys.readouterr().out, True)
    assert dispatch(["subgroup", "--json", "--simplify"] + kernel) == 0
    simp = _printed_presentation(capsys.readouterr().out, True)
    assert dispatch(["abelianize"] + kernel) == 0
    printed = capsys.readouterr().out
    assert f"{abelian_invariants(pres)}\n" == printed
    assert f"{abelian_invariants(simp)}\n" == printed


def _random_word(seed: int, rank: int, length: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(1, rank) for _ in range(length)]


def _conjugated_twin_power(seed: int) -> list[int]:
    # u (s_1 s_2)^6 u^-1 lies in level 12: (s_1 s_2)^k is trivial mod m
    # exactly when m divides 2k
    u = _random_word(seed, 5, 500)
    return u + [1, 2] * 6 + u[::-1]


# sha256 of stdout for seeded words read from --word-file: exact and
# modular word evaluation for bonds inf (twin), 1 (triplet) and the
# dense all-inf rows (universal), and level-m membership
PINNED_WORD_STDOUT = {
    "tits --family twin -n 7":
        (lambda: _random_word(1, 6, 2000),
         "53ff56e6af13523f8f23ea3bb5805af3afc041fd84ea7d0932ac6dabcfac6190"),
    "tits --family twin -n 7 --mod 13":
        (lambda: _random_word(1, 6, 2000),
         "21dc466de69fa3a5240be1214c98a45f872fe1392282887de5d0f8c42bc21695"),
    "tits --family triplet -n 7 --mod 6":
        (lambda: _random_word(2, 6, 2000),
         "ec38670aba310a1e3885ef12869aad3dac3a56d8ce4d4d99b1001a8cb4c7585a"),
    "tits --family universal -n 7 --json":
        (lambda: _random_word(3, 6, 300),
         "396ad9bb8b43645b64272cebd1b05ac4b8df606c0a9d9011b83ed240db357f11"),
    "member --family twin -n 6 -m 12":
        (lambda: _conjugated_twin_power(4),
         "10dd3e3b5f62e31b8da0e093603f3900f10668398ae3dbab575d132f09dc81b9"),
}


@pytest.mark.parametrize("line", PINNED_WORD_STDOUT)
def test_word_stdout_is_pinned(line, tmp_path, capsys):
    make_word, digest = PINNED_WORD_STDOUT[line]
    path = tmp_path / "word.txt"
    path.write_text(" ".join(map(str, make_word())) + "\n")
    assert dispatch(line.split() + ["--word-file", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _source_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "smallcox", "image", "--family", "twin",
         "-n", "4", "-m", "3"],
        env=_source_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "order 24\n"


def test_cli_import_needs_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, smallcox.cli; print('numpy' in sys.modules)"],
        env=_source_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_every_traced_layer_resolves(monkeypatch):
    # the benchmark tracer wraps functions by name; a rename or a dropped
    # re-export would silently lose that layer's metrics
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    import spans
    import smallcox.cli  # noqa: F401  (loads every traced module)

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def _right_angled_matrix(seed: int, vertices: int) -> str:
    """The Coxeter matrix file of a seeded random right-angled group."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(1, vertices + 1)
             for j in range(i + 1, vertices + 1) if rng.random() < 0.5]
    system = racg_system(simple_graph(vertices, edges))
    rows = (" ".join("inf" if e is INF else str(e) for e in row)
            for row in system.exponents)
    return "\n".join([str(vertices), *rows]) + "\n"


# sha256 of the files written by ``image --dump``: the elements in
# discovery order, so these pin the closure's output order; the
# right-angled matrix is written to a --matrix file first
PINNED_DUMPS = {
    "image --family twin -n 5 -m 3":
        "86cb25e395e323866dc19ca6423ad886671abc7b7885a19d9a8c399ba3b528af",
    "image --family twin -n 5 -m 12":
        "f1761bcda0d5a7531c36fe8fd02928a7c9548ae1b6cb2547085c5cb64afff913",
    "image --family triplet -n 4 -m 3":
        "ab9998f8976a97af46f1131a707baf3314eb1d5f0b5f30a2c55db66e46a9884e",
    "image --family triplet -n 5 -m 3":
        "5c77e6923107db139ca0864aeec1941c4ed2c8e469ad76da21bc70ddd3084c43",
    "image -m 4 --matrix":
        "0b0efd8e37bd53a066d98be5fa2e800b83d998653f077d7a1be2d74dc669c662",
    # 276 distinct rows, past the 256 of the bytes encoding
    "image --family twin -n 4 -m 15":
        "ba26e61be625c666369e7c613fbe701fee4af76018cf4aff4bce262d8b9ba81a",
}


@pytest.mark.parametrize("line", PINNED_DUMPS)
def test_image_dump_is_pinned(line, tmp_path, capsys):
    argv = line.split()
    if argv[-1] == "--matrix":
        matrix = tmp_path / "racg.txt"
        matrix.write_text(_right_angled_matrix(5, 6))
        argv.append(str(matrix))
    dump = tmp_path / "dump.txt"
    assert dispatch(argv + ["--dump", str(dump)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(dump.read_bytes()).hexdigest()
    assert digest == PINNED_DUMPS[line]


@pytest.mark.parametrize("command", ["subgroup", "abelianize"])
def test_kernel_commands_share_the_map_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--map {symmetric,mod2,modular}", "--map-mod MAP_MOD",
                 "modulus for --map modular", "--cap CAP"):
        assert flag in out
