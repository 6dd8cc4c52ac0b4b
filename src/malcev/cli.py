"""Command-line front end; `USAGE` gives the argv grammar.

Each invocation reads one self-contained input file (or standard input) in
the grammar of `parsing` and runs a single operation, a function from the
parsed document to its deterministic answer lines.  `run` alone writes them,
after all are computed, so an error leaves `out` empty.  Exit status: 0 for
affirmative answers, 1 for negative decision answers (wp false,
non-membership, NotConjugate, NoPower, NotInImage), printed as `no`, 2 for
malformed input or arguments, with one `error:` line on `err`.  `-h` or
`--help` anywhere in argv prints `USAGE` on `out` and exits 0.  argv is read
by hand: building a library parser cost a cold run more than the group work
of a small query.  No abbreviated option, `--` separator or per-command help
page is accepted.
"""

from __future__ import annotations

import sys

from . import decisions, groups, parsing, presentations, subgroups
from .extgcd import RejectedInput, extgcd_bounded
from .freegroup import SizeCapExceeded, coords_to_word


class InputError(ValueError):
    pass


def _read_document(path) -> list[parsing.GroupBlock]:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(str(exc)) from exc
    return parsing.parse_document(text)


def _one_group(doc) -> parsing.GroupBlock:
    if len(doc) != 1:
        raise InputError(f"expected exactly one group, found {len(doc)}")
    return doc[0]


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
# Command implementations.  Each takes the parsed document (extgcd its
# integers) and returns its answer lines, or None for a negative decision
# answer; `run` prints them.

def _cmd_nf(doc):
    block = _one_group(doc)
    (g,) = _elements(block, 1)
    return [parsing.format_vector(g.coords)]


def _cmd_wp(doc):
    block = _one_group(doc)
    (g,) = _elements(block, 1)
    return ["yes"] if g.is_identity() else None


def _cmd_member(doc, track=False):
    block = _one_group(doc)
    matrix = _one_subgroup(block)
    (g,) = _elements(block, 1)
    form, tracked = subgroups.full_form(block.presentation, matrix,
                                        track=track)
    witness = subgroups.membership(block.presentation, form, g)
    if witness is None:
        return None
    lines = ["yes", "gamma " + parsing.format_vector(witness.gamma)]
    if track:
        word = subgroups.express_in_original_generators(tracked, witness)
        lines.append("word " + parsing.format_word(word))
    return lines


def _cmd_fullform(doc):
    block = _one_group(doc)
    matrix = _one_subgroup(block)
    form, _ = subgroups.full_form(block.presentation, matrix)
    return ["row " + parsing.format_vector(row) for row in form.rows]


def _cmd_subpresent(doc):
    block = _one_group(doc)
    matrix = _one_subgroup(block)
    npres = subgroups.subgroup_presentation(block.presentation, matrix)
    return [npres.describe()]


def _cmd_quotpres(doc):
    block = _one_group(doc)
    if block.presentation.relators.rows:
        raise InputError("quotpres takes a bare group header; the word lines"
                         " are the relators")
    pres = presentations.from_finite_presentation(block.presentation.basis,
                                                  block.words)
    return [pres.describe()]


def _hom_spec(doc) -> tuple[decisions.HomSpec, parsing.GroupBlock]:
    if len(doc) != 2:
        raise InputError("expected two groups: source (with generator words)"
                         " then target (with image words)")
    src, tgt = doc
    gens = tuple(groups.normal_form(src.presentation, w) for w in src.words)
    imgs = tuple(groups.normal_form(tgt.presentation, w) for w in tgt.words)
    return decisions.HomSpec(source=src.presentation, target=tgt.presentation,
                             generators=gens, images=imgs), tgt


def _cmd_kernel(doc):
    spec, _ = _hom_spec(doc)
    kernel, _ = decisions.kernel_and_preimage(spec)
    return ["row " + parsing.format_vector(g.coords) for g in kernel]


def _cmd_preimage(doc):
    spec, tgt = _hom_spec(doc)
    (hw,) = _need(tgt.elements, 1, "element line(s) in the target group")
    h = groups.normal_form(tgt.presentation, hw)
    try:
        _, pre = decisions.kernel_and_preimage(spec, h)
    except decisions.NotInImage:
        return None
    return ["yes", "word " + parsing.format_word(coords_to_word(pre.coords))]


def _cmd_centralizer(doc):
    block = _one_group(doc)
    (g,) = _elements(block, 1)
    return ["row " + parsing.format_vector(z.coords)
            for z in decisions.centralizer(block.presentation, g)]


def _cmd_conj(doc):
    block = _one_group(doc)
    g, h = _elements(block, 2)
    answer = decisions.conjugacy(block.presentation, g, h)
    if not answer.conjugate:
        return None
    return ["yes", "witness "
            + parsing.format_word(coords_to_word(answer.witness.coords))]


def _cmd_power(doc):
    block = _one_group(doc)
    g, h = _elements(block, 2)
    try:
        k = decisions.power_problem(block.presentation, g, h,
                                    block.progression)
    except decisions.NoPower:
        return None
    return ["yes", f"k {k}"]


def _cmd_extgcd(numbers):
    g, x, _ = extgcd_bounded(numbers)
    return [str(g), parsing.format_vector(x)]


def _cmd_torsionbound(doc):
    block = _one_group(doc)
    return [str(decisions.torsion_bound(block.presentation))]


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


_COMMANDS = [*_FILE_COMMANDS, "extgcd"]

USAGE = f"""\
usage: malcev <command> [file]
       malcev member [--track] [file]
       malcev extgcd <int> <int> ...

commands: {" ".join(_COMMANDS[:7])}
          {" ".join(_COMMANDS[7:])}

Every command but extgcd reads one document from file, or from standard
input when file is - or absent.  --track makes member also print the
member as a word in the subgroup's rows.  Exit status: 0 yes, 1 no, 2 for
malformed input, with one error: line on standard error."""


def _read_argv(argv):
    """The command to call on argv, its operand (a file name, or extgcd's
    integers) and whether --track was given.  Raises InputError for any
    argv outside `<command> [file]`, `member [--track] [file]` (the option
    before or after the file) and `extgcd <int> <int> ...`."""
    if not argv:
        raise InputError("no command; malcev --help lists them")
    name, *rest = argv
    if name == "extgcd":
        if not rest:
            raise InputError("extgcd takes one or more integers")
        try:
            return _cmd_extgcd, [int(arg) for arg in rest], False
        except ValueError as exc:
            raise InputError(f"extgcd takes integers: {exc}") from None
    if name not in _FILE_COMMANDS:
        raise InputError(f"unknown command {name!r}; malcev --help lists"
                         " them")
    files = [arg for arg in rest if arg != "--track"]
    track = len(files) < len(rest)
    if len(rest) - len(files) > 1:
        raise InputError("--track is given more than once")
    if track and name != "member":
        raise InputError(f"--track is an option of member, not of {name}")
    for arg in files:
        if arg.startswith("-") and arg != "-":
            raise InputError(f"unknown option {arg!r}")
    if len(files) > 1:
        raise InputError(f"{name} takes at most one file, got {len(files)}")
    return _FILE_COMMANDS[name], files[0] if files else "-", track


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    # Integers have unbounded magnitude in the grammar, so lift Python's
    # limit on decimal conversion for this call only.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if "-h" in argv or "--help" in argv:
            print(USAGE, file=out)
            return 0
        command, operand, track = _read_argv(argv)
        if command is not _cmd_extgcd:
            operand = _read_document(operand)
        lines = command(operand, track=True) if track else command(operand)
    except (InputError, parsing.ParseError, RejectedInput,
            SizeCapExceeded) as exc:
        print(f"error: {exc}", file=err)
        return 2
    finally:
        sys.set_int_max_str_digits(digits)
    if lines is None:
        print("no", file=out)
        return 1
    for line in lines:
        print(line, file=out)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
