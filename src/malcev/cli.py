"""Command-line front end.

Each invocation reads one self-contained input file (or standard input) in
the grammar of `parsing`, runs a single operation and prints a deterministic
text answer.  Exit status: 0 for affirmative answers, 1 for negative decision
answers (wp false, non-membership, NotConjugate, NoPower, NotInImage), 2 for
malformed input.
"""

from __future__ import annotations

import argparse
import sys

from . import decisions, groups, parsing, presentations, subgroups
from .extgcd import RejectedInput, extgcd_bounded
from .freegroup import SizeCapExceeded, coords_to_word


class InputError(ValueError):
    pass


def _read_document(args) -> parsing.Document:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(str(exc)) from exc
    return parsing.parse_document(text)


def _one_group(doc) -> parsing.GroupBlock:
    if len(doc.groups) != 1:
        raise InputError(f"expected exactly one group, found {len(doc.groups)}")
    return doc.groups[0]


def _need(seq, count, what):
    if len(seq) != count:
        raise InputError(f"expected {count} {what}, found {len(seq)}")
    return seq


def _one_subgroup(block) -> subgroups.CoordinateMatrix:
    (rows,) = _need(block.subgroups, 1, "subgroup section(s)")
    return subgroups.coordinate_matrix(block.presentation, rows)


def _elements(block, count):
    words = _need(block.words, count, "word(s)")
    return [groups.normal_form(block.presentation, w) for w in words]


# ---------------------------------------------------------------------------
# Command implementations.  Each returns the exit status.

def _cmd_nf(args, out) -> int:
    block = _one_group(_read_document(args))
    (g,) = _elements(block, 1)
    print(parsing.format_vector(g.coords), file=out)
    return 0


def _cmd_wp(args, out) -> int:
    block = _one_group(_read_document(args))
    (g,) = _elements(block, 1)
    if g.is_identity():
        print("yes", file=out)
        return 0
    print("no", file=out)
    return 1


def _cmd_member(args, out) -> int:
    block = _one_group(_read_document(args))
    matrix = _one_subgroup(block)
    (g,) = _elements(block, 1)
    form, tracked = subgroups.full_form(block.presentation, matrix,
                                        track=args.track)
    witness = subgroups.membership(block.presentation, form, g)
    if witness is None:
        print("no", file=out)
        return 1
    print("yes", file=out)
    print("gamma", parsing.format_vector(witness.gamma), file=out)
    if args.track:
        word = subgroups.express_in_original_generators(tracked, witness)
        print("word", parsing.format_word(word), file=out)
    return 0


def _cmd_fullform(args, out) -> int:
    block = _one_group(_read_document(args))
    matrix = _one_subgroup(block)
    form, _ = subgroups.full_form(block.presentation, matrix)
    for row in form.rows:
        print("row", parsing.format_vector(row), file=out)
    return 0


def _cmd_subpresent(args, out) -> int:
    block = _one_group(_read_document(args))
    matrix = _one_subgroup(block)
    npres = subgroups.subgroup_presentation(block.presentation, matrix)
    print(npres.describe(), file=out)
    return 0


def _cmd_quotpres(args, out) -> int:
    block = _one_group(_read_document(args))
    if block.presentation.relators.rows:
        raise InputError("quotpres takes a bare group header; the word lines"
                         " are the relators")
    pres = presentations.from_finite_presentation(block.presentation.basis,
                                                  block.words)
    print(pres.describe(), file=out)
    return 0


def _hom_spec(doc) -> tuple[decisions.HomSpec, parsing.GroupBlock]:
    if len(doc.groups) != 2:
        raise InputError("expected two groups: source (with generator words)"
                         " then target (with image words)")
    src, tgt = doc.groups
    if len(src.words) != len(tgt.words):
        raise InputError("generator and image counts differ")
    gens = tuple(groups.normal_form(src.presentation, w) for w in src.words)
    imgs = tuple(groups.normal_form(tgt.presentation, w) for w in tgt.words)
    return decisions.HomSpec(source=src.presentation, target=tgt.presentation,
                             generators=gens, images=imgs), tgt


def _cmd_kernel(args, out) -> int:
    spec, _ = _hom_spec(_read_document(args))
    kernel, _ = decisions.kernel_and_preimage(spec)
    for g in kernel:
        print("row", parsing.format_vector(g.coords), file=out)
    return 0


def _cmd_preimage(args, out) -> int:
    spec, tgt = _hom_spec(_read_document(args))
    (hw,) = _need(tgt.elements, 1, "element line(s) in the target group")
    h = groups.normal_form(tgt.presentation, hw)
    try:
        _, pre = decisions.kernel_and_preimage(spec, h)
    except decisions.NotInImage:
        print("no", file=out)
        return 1
    print("yes", file=out)
    print("word", parsing.format_word(coords_to_word(pre.coords)), file=out)
    return 0


def _cmd_centralizer(args, out) -> int:
    block = _one_group(_read_document(args))
    (g,) = _elements(block, 1)
    for z in decisions.centralizer(block.presentation, g):
        print("row", parsing.format_vector(z.coords), file=out)
    return 0


def _cmd_conj(args, out) -> int:
    block = _one_group(_read_document(args))
    g, h = _elements(block, 2)
    answer = decisions.conjugacy(block.presentation, g, h)
    if not answer.conjugate:
        print("no", file=out)
        return 1
    print("yes", file=out)
    print("witness", parsing.format_word(coords_to_word(answer.witness.coords)),
          file=out)
    return 0


def _cmd_power(args, out) -> int:
    block = _one_group(_read_document(args))
    g, h = _elements(block, 2)
    try:
        k = decisions.power_problem(block.presentation, g, h,
                                    block.progression)
    except decisions.NoPower:
        print("no", file=out)
        return 1
    print("yes", file=out)
    print("k", k, file=out)
    return 0


def _cmd_extgcd(args, out) -> int:
    g, x, _ = extgcd_bounded(args.numbers)
    print(g, file=out)
    print(parsing.format_vector(x), file=out)
    return 0


def _cmd_torsionbound(args, out) -> int:
    block = _one_group(_read_document(args))
    print(decisions.torsion_bound(block.presentation), file=out)
    return 0


_FILE_COMMANDS = {
    "nf": _cmd_nf,
    "wp": _cmd_wp,
    "member": _cmd_member,
    "fullform": _cmd_fullform,
    "subpresent": _cmd_subpresent,
    "quotpres": _cmd_quotpres,
    "kernel": _cmd_kernel,
    "preimage": _cmd_preimage,
    "centralizer": _cmd_centralizer,
    "conj": _cmd_conj,
    "power": _cmd_power,
    "torsionbound": _cmd_torsionbound,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malcev",
        description="Exact decision procedures for finitely generated"
                    " nilpotent groups of fixed class and rank.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _FILE_COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("file", nargs="?", default="-",
                       help="input file in the document grammar; - for stdin")
        if name == "member":
            p.add_argument("--track", action="store_true",
                           help="also express the member over the original"
                                " generators")
        p.set_defaults(fn=fn)
    p = sub.add_parser("extgcd")
    p.add_argument("numbers", nargs="+", type=int)
    p.set_defaults(fn=_cmd_extgcd)
    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    # Integers have unbounded magnitude in the grammar, so lift Python's
    # limit on decimal conversion for this call only.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code else 0
        return args.fn(args, out)
    except (InputError, parsing.ParseError, RejectedInput,
            SizeCapExceeded) as exc:
        print(f"error: {exc}", file=err)
        return 2
    finally:
        sys.set_int_max_str_digits(digits)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
