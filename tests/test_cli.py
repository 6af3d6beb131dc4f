import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from smallcox import cli
from smallcox import verify as verify_module
from smallcox.cli import dispatch
from smallcox.coxeter import (format_coxeter_matrix, racg_system,
                              simple_graph, twin)
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
        "1c83c2f05e9f6ba1b2ffc19441bafe5eb32209327e39e9db07ab301b16ae57a3",
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


def test_suites_are_the_builder_table():
    assert verify_module.SUITES == ("tits", "congruence", "rewriting",
                                    "crystallo", "complexes", "all")
    assert verify_module.SUITES[:-1] == tuple(verify_module._SUITE_BUILDERS)


def test_image_exits_zero(capsys):
    assert dispatch(["image", "--family", "twin", "-n", "4", "-m", "3"]) == 0
    assert capsys.readouterr().out == "order 24\n"


def test_budget_exits_one(capsys):
    argv = ["image", "--family", "twin", "-n", "4", "-m", "5", "--cap", "10"]
    assert dispatch(argv) == 1
    assert "budget" in capsys.readouterr().err


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


def test_failed_claim_exits_one(monkeypatch, capsys):
    failing = Claim("always-false", "a claim that fails", "1", "2", False, 0.0)
    monkeypatch.setitem(verify_module._SUITE_BUILDERS, "tits",
                        lambda: [failing])
    assert dispatch(["verify", "--suite", "tits"]) == 1
    assert "FAIL suite tits: 0/1 claims" in capsys.readouterr().out


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
# the Schreier, Tietze, Smith normal form, holonomy, subquotient and
# face census layers; a refactor must leave these bytes as they are
PINNED_STDOUT = {
    "subgroup --family triplet -n 5 --map symmetric --simplify":
        "f174bd9882749531b45ac76ee809cb3435ce6dc98c5cda3bd1ed3f373986a349",
    "subgroup --family twin -n 4 --map modular --map-mod 3":
        "6cbb00f05800077e21439b52d29aed984ca8eb600dc5938c2c3592b1678e4a5f",
    "subgroup --family twin -n 5 --map mod2 --json":
        "1a105557b6043905c229a5873285b62765f2b5d47554f32daa124ca769555adf",
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
        "ee92162ddded1b0cd00a95671ad98e54d0c3e710726f06da233d6e41de918711",
    "permutahedron -n 8":
        "2a36e36e70cf63c75e1bc011f4284b62f1074e26fd3ebe46cf389334dd6682de",
    "permutahedron -n 8 --json":
        "8a4beb4fea276b561bdc0997c8714f557632e5f87701605cf96693d4a9e43f88",
    "permutahedron --table":
        "ae61fcd316acff6490ac00ddd2efdc11c900b02c4fa5a5c95eab02a9bcac2568",
}


@pytest.mark.parametrize("line", PINNED_STDOUT)
def test_stdout_is_pinned(line, capsys):
    assert dispatch(line.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[line]


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


def _right_angled_matrix(seed: int, vertices: int) -> str:
    """The Coxeter matrix file of a seeded random right-angled group."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(1, vertices + 1)
             for j in range(i + 1, vertices + 1) if rng.random() < 0.5]
    return format_coxeter_matrix(racg_system(simple_graph(vertices, edges)))


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
    "image -m 4 --matrix":
        "0b0efd8e37bd53a066d98be5fa2e800b83d998653f077d7a1be2d74dc669c662",
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
