"""Command-line front end.

Subcommands: tits, image, member, quotient, subgroup, abelianize,
holonomy, permutahedron, verify.  Results go to stdout, diagnostics and
timings to stderr.  ``--json`` switches to a single machine-readable
object with sorted keys; identical invocations produce byte-identical
structured output.

``dispatch`` runs one command line.  It builds the argparse tree with
``build_parser`` at its first call, not at import, and reuses it for the
rest of the process, so a caller that dispatches many command lines in
one interpreter parses each without rebuilding the tree.

``import smallcox.cli`` loads the package's modules and the standard
modules they use, among them ``argparse``, ``json``, ``pathlib``,
``random`` and ``typing``.  With warm bytecode, on Python 3.11.7 on a
shared 2-vCPU Xeon VM where ``site`` had loaded the last three, that
took about 8 ms: 4 ms for the package, 2 for ``argparse`` and 1.5 for
``json``.
Records are ``NamedTuple`` classes, and the types that validate, cache
or are hashed in sets are plain classes; the package defines no
``@dataclass``, whose module pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize`` and compiles the methods of each class.  The ``--json``
records of ``abelianize`` and ``holonomy`` are the ``_asdict()`` of
their results, tuples printed as arrays.

Exit status: 0 on success, 1 on a computation error (validation
failure, exceeded budget, unreadable input file) or a failed ``verify``
claim, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import congruence, crystallo, permutahedron, rewriting, tits, verify
from .coxeter import (CoxeterError, CoxeterSystem, format_word,
                      named_system, parse_coxeter_matrix, parse_word)

COMPUTE_ERRORS = (CoxeterError, ValueError, RuntimeError, OSError)


def _add_system_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family",
                        choices=("twin", "triplet", "symmetric", "universal",
                                 "w_nm"),
                        help="named family (needs -n; w_nm also needs --bond)")
    parser.add_argument("-n", type=int, help="number of strands (rank n-1)")
    parser.add_argument("--bond", type=int,
                        help="consecutive exponent m for the w_nm family")
    parser.add_argument("--matrix", type=Path,
                        help="Coxeter matrix file (rank line, then rows, "
                             "'inf' for an infinite bond)")


def _add_map_flags(parser: argparse.ArgumentParser) -> None:
    """A system plus the quotient map whose kernel is computed."""
    _add_system_flags(parser)
    parser.add_argument("--map", choices=("symmetric", "mod2", "modular"),
                        required=True)
    parser.add_argument("--map-mod", type=int,
                        help="modulus for --map modular")
    parser.add_argument("--cap", type=int, default=congruence.DEFAULT_CAP)


def _system_from_args(args) -> CoxeterSystem:
    if args.bond is not None and args.family != "w_nm":
        raise CoxeterError("--bond is only for --family w_nm")
    if args.matrix is not None:
        if args.family is not None or args.n is not None:
            raise CoxeterError("--family and -n are not for --matrix")
        return parse_coxeter_matrix(args.matrix.read_text())
    if not args.family or args.n is None:
        raise CoxeterError("give --family with -n, or --matrix FILE")
    return named_system(args.family, args.n, m=args.bond)


def _word_from_args(args) -> tuple[int, ...]:
    if getattr(args, "word_file", None) is not None:
        return parse_word(args.word_file.read_text())
    return parse_word(args.word or "")


def _emit(args, record: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _cmd_tits(args) -> int:
    system = _system_from_args(args)
    word = _word_from_args(args)
    if args.mod is None:
        mat = tits.evaluate(system, word)
        record = {"matrix": [list(r) for r in mat.rows]}
    else:
        mat = tits.evaluate_mod(system, word, args.mod)
        record = {"matrix": [list(r) for r in mat.rows], "mod": args.mod}
    # the text form is only formatted when it is printed
    _emit(args, record, [] if args.json else [str(mat).rstrip("\n")])
    return 0


def _cmd_image(args) -> int:
    system = _system_from_args(args)
    group = congruence.enumerate_image(system, args.m, args.cap)
    if args.dump is not None:
        args.dump.write_text(congruence.format_group_dump(group))
    _emit(args, {"order": group.order, "modulus": args.m,
                 "dimension": group.dimension},
          [f"order {group.order}"])
    return 0


def _cmd_member(args) -> int:
    system = _system_from_args(args)
    word = _word_from_args(args)
    member = congruence.congruence_member(system, word, args.m)
    _emit(args, {"member": member}, [f"member {str(member).lower()}"])
    return 0


def _cmd_quotient(args) -> int:
    checker = {
        "alternating": congruence.alternating_quotient_check,
        "even-vectors": congruence.even_vector_quotient_check,
        "product": congruence.product_quotient_check,
    }[args.check]
    result = checker(args.n, args.m, args.cap)
    record = {"check": result.kind, "n": result.n, "m": result.m,
              "ok": result.ok, "kernel_order": result.kernel_order,
              "image_order": result.image_order,
              "expected_kernel_order": result.expected_kernel_order}
    _emit(args, record,
          [f"{result.kind} n={result.n} m={result.m}: "
           f"ok={result.ok} kernel_order={result.kernel_order} "
           f"({result.detail})"])
    return 0


def _kernel_rewriter(args) -> rewriting.KernelRewriter:
    """The kernel of the ``--map`` quotient, on its coset graph."""
    system = _system_from_args(args)
    kind = {"symmetric": "symmetric", "mod2": "mod2_abelian",
            "modular": "modular"}[args.map]
    if kind == "modular" and args.map_mod is None:
        raise CoxeterError("--map modular needs --map-mod M")
    if kind != "modular" and args.map_mod is not None:
        raise CoxeterError("--map-mod is only for --map modular")
    qmap = rewriting.quotient_map(system, kind, args.map_mod)
    return rewriting.KernelRewriter(qmap, args.cap)


def _cmd_subgroup(args) -> int:
    rewriter = _kernel_rewriter(args)
    pres = rewriter.presentation
    if args.simplify:
        pres = rewriting.tietze_simplify(pres)
    cosets = rewriter.table.count
    record = {"cosets": cosets, "generators": pres.generators,
              "relators": [list(r) for r in pres.relators]}
    _emit(args, record,
          [f"cosets {cosets}",
           rewriting.format_presentation(pres).rstrip("\n")])
    return 0


def _cmd_abelianize(args) -> int:
    inv = _kernel_rewriter(args).invariants
    _emit(args, inv._asdict(), [str(inv)])
    return 0


def _cmd_holonomy(args) -> int:
    if args.quotient == "second-commutator":
        report = crystallo.theta_faithfulness(args.n)
    else:
        # pure-twin and pure-triplet: the kernel onto S_n
        family = args.quotient.removeprefix("pure-")
        qmap = rewriting.quotient_map(named_system(family, args.n),
                                      "symmetric")
        report = crystallo.holonomy_via_conjugation(qmap, family)
    lines = [f"quotient {report.quotient}",
             f"dimension {report.dimension}",
             f"holonomy_order {report.holonomy_order}",
             f"faithful {str(report.faithful).lower()}"]
    if report.lattice_torsion:
        lines.append("lattice_torsion " +
                     " ".join(str(d) for d in report.lattice_torsion))
    if report.kernel_witnesses:
        lines.append("kernel_witnesses " + "; ".join(
            map(format_word, report.kernel_witnesses)))
    _emit(args, report._asdict(), lines)
    return 0


def _cmd_permutahedron(args) -> int:
    if args.table:
        ranks = {n: permutahedron.pl_rank(n) for n in range(3, 8)}
        _emit(args, {"ranks": {str(n): r for n, r in ranks.items()}},
              ["n    rank"] + [f"{n}    {r}" for n, r in ranks.items()])
        return 0
    census = permutahedron.face_census(args.n)
    record = census.to_record()
    _emit(args, record,
          [f"n {census.n}", f"V {census.vertices}", f"E {census.edges}",
           f"F6 {census.hexagons}", f"F4 {census.squares}",
           f"chi {census.euler_characteristic}", f"rank {census.rank}"])
    return 0


def _cmd_verify(args) -> int:
    report = verify.verify(args.suite)
    if args.json:
        print(json.dumps(report.to_record(), sort_keys=True,
                         separators=(",", ":")))
    else:
        for claim in report.claims:
            status = "PASS" if claim.ok else "FAIL"
            print(f"{status} {claim.claim_id}: {claim.description} "
                  f"[computed {claim.computed}]")
        print(f"{'PASS' if report.passed else 'FAIL'} suite {report.suite}: "
              f"{sum(c.ok for c in report.claims)}/{len(report.claims)} claims")
    for claim in report.claims:
        print(f"  {claim.claim_id}: {claim.seconds:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallcox",
        description="exact computations with small Coxeter groups")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("tits", help="evaluate a word to a matrix")
    _add_system_flags(p)
    p.add_argument("--word", help="whitespace-separated generator indices")
    p.add_argument("--word-file", type=Path)
    p.add_argument("--mod", type=int, help="reduce entries mod M")
    p.set_defaults(func=_cmd_tits)

    p = add_parser("image", help="enumerate the finite image mod m")
    _add_system_flags(p)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--cap", type=int, default=congruence.DEFAULT_CAP)
    p.add_argument("--dump", type=Path, help="write the group dump here")
    p.set_defaults(func=_cmd_image)

    p = add_parser("member", help="principal congruence membership")
    _add_system_flags(p)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--word", help="whitespace-separated generator indices")
    p.add_argument("--word-file", type=Path)
    p.set_defaults(func=_cmd_member)

    p = add_parser("quotient", help="identify a congruence subquotient")
    p.add_argument("--check", choices=("alternating", "even-vectors",
                                       "product"), required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--cap", type=int, default=congruence.DEFAULT_CAP)
    p.set_defaults(func=_cmd_quotient)

    p = add_parser("subgroup",
                   help="presentation of a kernel on the cells of its "
                        "coset graph")
    _add_map_flags(p)
    p.add_argument("--simplify", action="store_true",
                   help="run Tietze simplification on the result")
    p.set_defaults(func=_cmd_subgroup)

    p = add_parser("abelianize",
                       help="abelian invariants of a kernel")
    _add_map_flags(p)
    p.set_defaults(func=_cmd_abelianize)

    p = add_parser("holonomy",
                       help="faithfulness report for a crystallographic "
                            "quotient")
    p.add_argument("--quotient", choices=("pure-twin", "second-commutator",
                                          "pure-triplet"), required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_holonomy)

    p = add_parser("permutahedron", help="face census and free rank")
    p.add_argument("-n", type=int, default=4)
    p.add_argument("--table", action="store_true",
                   help="print the rank table for n = 3..7")
    p.set_defaults(func=_cmd_permutahedron)

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    p.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` gives each command
    line a fresh namespace, so nothing carries over between calls."""
    return build_parser()


def dispatch(argv: Optional[list[str]] = None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None)."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[list[str]] = None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
