import io
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import malcev
from malcev.cli import run
from malcev.parsing import parse_word


HEIS_HEADER = "group c=2 r=2\n"


def invoke(argv, stdin=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    status = run(argv, out, err)
    return status, out.getvalue(), err.getvalue()


def doc(tmp_path, text, name="doc.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def inverse_word_text(text):
    factors = parse_word(text.split(), 1, text)
    return " ".join(f"a{g}^{-e}" for g, e in reversed(factors))


def test_nf_and_wp(tmp_path):
    f = doc(tmp_path, HEIS_HEADER + "word a2 a1\n")
    status, out, _ = invoke(["nf", f])
    assert (status, out) == (0, "1 1 1\n")
    f = doc(tmp_path, HEIS_HEADER + "word a1^5 a1^-5\n")
    assert invoke(["wp", f])[:2] == (0, "yes\n")
    f = doc(tmp_path, HEIS_HEADER + "word a1 a2 a1^-1 a2^-1\n")
    assert invoke(["wp", f])[:2] == (1, "no\n")


MEMBER_DOC = (HEIS_HEADER
              + "subgroup\nrow 2 0 0\nrow 0 1 0\n"
              + "word a1^2 a2 a3^2\n")


def test_member(tmp_path):
    f = doc(tmp_path, MEMBER_DOC)
    status, out, _ = invoke(["member", f])
    assert status == 0
    assert out == "yes\ngamma 1 1 1\n"
    status, out, _ = invoke(["member", "--track", f])
    assert status == 0
    lines = out.splitlines()
    assert lines[:2] == ["yes", "gamma 1 1 1"]
    assert lines[2].startswith("word a")
    f = doc(tmp_path, HEIS_HEADER + "subgroup\nrow 2 0 0\nword a1\n")
    assert invoke(["member", f])[:2] == (1, "no\n")


def test_fullform(tmp_path):
    f = doc(tmp_path, HEIS_HEADER + "subgroup\nrow 2 0 0\nrow 0 1 0\n")
    status, out, _ = invoke(["fullform", f])
    assert status == 0
    assert out == "row 2 0 0\nrow 0 1 0\nrow 0 0 2\n"


def test_subpresent(tmp_path):
    f = doc(tmp_path, HEIS_HEADER + "subgroup\nrow 2 0 0\nrow 0 1 0\n")
    status, out, _ = invoke(["subpresent", f])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "generators 3"
    assert lines[1] == "orders inf inf inf"
    assert "conj 1 2 0 0 1" in lines


def test_quotpres(tmp_path):
    f = doc(tmp_path, "group c=1 r=2\nword a1^2\n")
    status, out, _ = invoke(["quotpres", f])
    assert status == 0
    assert out == "group c=1 r=2\nrow 2 0\n"
    f = doc(tmp_path, "group c=1 r=2\nrow 2 0\nword a1^2\n")
    status, _, err = invoke(["quotpres", f])
    assert status == 2 and "error:" in err


HOM_DOC = ("group c=1 r=2\nword a1\nword a2\n"
           "group c=1 r=1\nword a1^2\nword a1^3\n")


def test_kernel_and_preimage(tmp_path):
    f = doc(tmp_path, HOM_DOC)
    status, out, _ = invoke(["kernel", f])
    assert (status, out) == (0, "row 3 -2\n")
    f = doc(tmp_path, HOM_DOC + "element a1\n")
    status, out, _ = invoke(["preimage", f])
    assert (status, out) == (0, "yes\nword a1^2 a2^-1\n")
    not_onto = ("group c=1 r=2\nword a1\nword a2\n"
                "group c=1 r=1\nword a1^2\nword a1^4\n"
                "element a1\n")
    f = doc(tmp_path, not_onto)
    assert invoke(["preimage", f])[:2] == (1, "no\n")


def test_map_that_is_not_a_homomorphism_is_rejected(tmp_path):
    # a1 -> 1 and a1^2 -> 5 in Z: no homomorphism sends both.
    not_hom = ("group c=2 r=2\nword a1^1\nword a1^2\n"
               "group c=1 r=1\nword a1^1\nword a1^5\n")
    for command, text in (("kernel", not_hom),
                          ("preimage", not_hom + "element a1^1\n")):
        status, out, err = invoke([command, doc(tmp_path, text)])
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_centralizer(tmp_path):
    f = doc(tmp_path, HEIS_HEADER + "word a1\n")
    status, out, _ = invoke(["centralizer", f])
    assert (status, out) == (0, "row 1 0 0\nrow 0 0 1\n")


def test_conj_witness_reverifies_through_wp(tmp_path):
    f = doc(tmp_path, HEIS_HEADER + "word a1 a3^2\nword a1\n")
    status, out, _ = invoke(["conj", f])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    assert lines[1].startswith("witness ")
    w = lines[1].removeprefix("witness ")
    # g = u^-1 h u, so u^-1 h u g^-1 must be the identity
    check = (HEIS_HEADER
             + f"word {inverse_word_text(w)} a1 {w} a3^-2 a1^-1\n")
    assert invoke(["wp", doc(tmp_path, check, "chk.txt")])[:2] == (0, "yes\n")
    f = doc(tmp_path, HEIS_HEADER + "word a1^2\nword a1\n")
    assert invoke(["conj", f])[:2] == (1, "no\n")


def test_rank_one_descends_at_its_class_whatever_the_header(tmp_path):
    # A rank-1 group is Z at every class: the descent reads the group's
    # class, 1, and not the header's, so c=2000 answers as c=1 does.  Its
    # basis is built in time that does not depend on the class.
    for argv, body, answer in (
            (["conj"], "word a1^3\nword a1^3\n", (0, "yes\nwitness 1\n")),
            (["conj"], "word a1^3\nword a1^2\n", (1, "no\n")),
            (["centralizer"], "word a1^3\n", (0, "row 1\n"))):
        for c in (1, 2000, 10**18):
            f = doc(tmp_path, f"group c={c} r=1\n" + body)
            assert invoke(argv + [f]) == (*answer, ""), (c, argv)


def test_refused_bases_are_one_line_errors(tmp_path):
    # The library answers exactly the bases whose tables ship: rank 2 to 9
    # within 128 letters, except (9, 2), and rank 1 at any class.  (9, 2),
    # (1, 10) and (2, 10) had been accepted, and derived their polynomials
    # on first use; (9, 9) and (1, 129) were refused for their size.
    for c, r in ((9, 2), (1, 10), (2, 10), (9, 9), (1, 129)):
        f = doc(tmp_path, f"group c={c} r={r}\nword a1\n")
        start = time.perf_counter()
        status, out, err = invoke(["nf", f])
        assert time.perf_counter() - start < 1, (c, r)
        assert (status, out) == (2, ""), (c, r)
        assert err.startswith("error:") and err.count("\n") == 1, (c, r)


def test_power(tmp_path):
    f = doc(tmp_path, HEIS_HEADER + "word a1 a2\nword a1^3 a2^3 a3^3\n")
    status, out, _ = invoke(["power", f])
    assert (status, out) == (0, "yes\nk 3\n")
    f = doc(tmp_path, HEIS_HEADER + "word a1\nword a3\n")
    assert invoke(["power", f])[:2] == (1, "no\n")
    torsion = ("group c=1 r=1\nrow 5\nword a1\nword a1^2\n"
               "progression 1 3\n")
    f = doc(tmp_path, torsion)
    assert invoke(["power", f])[:2] == (0, "yes\nk 7\n")


def test_extgcd():
    status, out, _ = invoke(["extgcd", "6", "10", "15"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "1"
    x = [int(v) for v in lines[1].split()]
    assert 6 * x[0] + 10 * x[1] + 15 * x[2] == 1


def test_module_entry_points():
    src = os.path.dirname(os.path.dirname(malcev.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    expected = invoke(["extgcd", "6", "10", "15"])[1]
    for module in ("malcev", "malcev.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "extgcd", "6", "10", "15"],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, expected)


def test_torsionbound(tmp_path):
    f = doc(tmp_path, "group c=1 r=2\nrow 2 0\nrow 0 3\n")
    assert invoke(["torsionbound", f])[:2] == (0, "6\n")


def test_parse_errors_name_line_and_column(tmp_path):
    f = doc(tmp_path, HEIS_HEADER + "word a1 bogus\n")
    status, out, err = invoke(["nf", f])
    assert status == 2 and out == ""
    assert "line 2" in err and "column 9" in err
    # the column is the bad token's own, not the first place its text
    # appears in the line
    for line in ("row 1 0 o", "word a1 a"):
        f = doc(tmp_path, HEIS_HEADER + line + "\n")
        status, out, err = invoke(["nf", f])
        assert (status, out) == (2, "")
        assert "line 2, column 9:" in err, line
    f = doc(tmp_path, "group c=2 r=2\nfrobnicate\n")
    status, _, err = invoke(["nf", f])
    assert status == 2 and "line 2" in err


def test_input_errors(tmp_path):
    assert invoke(["nf", str(tmp_path / "missing.txt")])[0] == 2
    # malformed relator matrix rejected with position information
    f = doc(tmp_path, "group c=1 r=2\nrow 0 0\nword a1\n")
    status, _, err = invoke(["nf", f])
    assert status == 2 and "error:" in err
    # relator rows that are closed but do not span a normal subgroup
    f = doc(tmp_path, "group c=2 r=2\nrow 2 0 1\nword a1\n")
    status, out, err = invoke(["wp", f])
    assert (status, out) == (2, "") and err.count("error:") == 1
    assert "(vi)" in err
    # wrong number of words
    f = doc(tmp_path, HEIS_HEADER + "word a1\n")
    assert invoke(["conj", f])[0] == 2
    # unknown command
    assert invoke(["frobnicate"])[0] == 2


def test_stdin_input(monkeypatch):
    status, out, _ = invoke(["nf"], stdin=HEIS_HEADER + "word a1 a2\n",
                            monkeypatch=monkeypatch)
    assert (status, out) == (0, "1 1 0\n")


@pytest.mark.parametrize("argv_text", [
    (["nf"], HEIS_HEADER + "word a2 a1\n"),
    (["fullform"], HEIS_HEADER + "subgroup\nrow 2 0 0\nrow 0 1 0\n"),
    (["subpresent"], HEIS_HEADER + "subgroup\nrow 2 0 0\nrow 0 1 0\n"),
    (["member", "--track"], MEMBER_DOC),
    (["centralizer"], HEIS_HEADER + "word a1\n"),
    (["conj"], HEIS_HEADER + "word a1 a3^2\nword a1\n"),
])
def test_output_is_byte_deterministic(tmp_path, argv_text):
    argv, text = argv_text
    f = doc(tmp_path, text)
    first = invoke(argv + [f])
    second = invoke(argv + [f])
    assert first == second


# ---------------------------------------------------------------------------
# Integers beyond Python's default limit of 4,300 decimal digits.  The texts
# are built as strings, so the test itself converts no large integer.

def answers(argv, status, out):
    """Whether argv exits with status, prints out and writes no error.  A
    plain == on the strings would make pytest diff 5,000-digit texts."""
    return invoke(argv) == (status, out, "")


def test_nf_prints_coordinates_beyond_the_digit_limit(tmp_path):
    n = "1" + "0" * 3000
    f = doc(tmp_path, HEIS_HEADER + f"word a2^{n} a1^{n}\n")
    assert answers(["nf", f], 0, f"{n} {n} 1{'0' * 6000}\n")


def test_parse_accepts_numbers_beyond_the_digit_limit(tmp_path):
    n = "9" * 5000
    f = doc(tmp_path, HEIS_HEADER + f"subgroup\nrow {n} 0 0\n")
    assert answers(["fullform", f], 0, f"row {n} 0 0\n")
    f = doc(tmp_path, HEIS_HEADER + f"word a1^-{n}\n")
    assert answers(["nf", f], 0, f"-{n} 0 0\n")
    f = doc(tmp_path, HEIS_HEADER + f"word a1\nword a1^{n}\n"
            f"progression {n} {n}\n")
    assert answers(["power", f], 0, f"yes\nk {n}\n")
    f = doc(tmp_path, HEIS_HEADER + f"word a{n}\n")
    status, out, err = invoke(["nf", f])
    assert (status, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_extgcd_beyond_the_digit_limit():
    status, out, err = invoke(["extgcd", "7" * 5000, "3"])
    assert (status, err) == (0, "")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        g, x = out.splitlines()
        x1, x2 = map(int, x.split())
        assert g == "1" and x1 * int("7" * 5000) + x2 * 3 == 1
    finally:
        sys.set_int_max_str_digits(old)


def test_run_restores_the_digit_limit(tmp_path):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        f = doc(tmp_path, HEIS_HEADER + f"word a3^{'8' * 5000}\n")
        assert answers(["nf", f], 0, f"0 0 {'8' * 5000}\n")
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# Fuzzing: documents built from the grammar's line kinds, with some numbers
# far beyond the digit limit, some malformed lines and some wrong row lengths.
# The draws are derandomized: some legal documents with 5,000-digit entries
# take tens of seconds, and a fixed set keeps the run time fixed.

SHAPES = {(1, 1): 1, (1, 2): 2, (2, 2): 3, (3, 2): 5}
HUGE = ["9" * 5000, "-1" + "0" * 4400, "4" * 4301]
# True one time in six.  Each rare choice is the True side, so shrinking moves
# towards small numbers and well-formed lines.
RARELY = st.integers(0, 5).map(lambda k: k == 5)
NUMBERS = RARELY.flatmap(lambda huge: st.sampled_from(HUGE) if huge
                         else st.integers(-6, 6).map(str))
MALFORMED = st.one_of(
    st.sampled_from(["row x", "word b1", "word a1^", "group c=2", "element",
                     "progression 1", "subgroup 3", "frobnicate", "# note"]),
    st.text(alphabet="aw0123456789^ -rx", max_size=12),
    st.lists(NUMBERS, max_size=6).map(lambda xs: "row " + " ".join(xs)))


@st.composite
def documents(draw):
    """One group block (rarely two) of well-formed lines, with rarely a
    malformed line or a row of the wrong length inserted."""
    lines = []
    for _ in range(2 if draw(RARELY) else 1):
        (c, r), m = draw(st.sampled_from(sorted(SHAPES.items())))
        row = st.lists(NUMBERS, min_size=m, max_size=m).map(
            lambda xs: "row " + " ".join(xs))
        index = RARELY.flatmap(lambda bad: st.sampled_from(
            ["0", str(m + 1), HUGE[0]]) if bad else st.integers(1, m).map(str))
        word = st.lists(st.tuples(index, NUMBERS), max_size=3).map(
            lambda fs: " ".join(f"a{k}^{x}" for k, x in fs))
        lines.append(f"group c={c} r={r}")
        relator = draw(st.sampled_from(["none", "central", "random"]))
        if relator == "central":  # a torsion order on a central letter
            e = draw(st.sampled_from(["2", "5", HUGE[0]]))
            lines.append("row " + " ".join(["0"] * (m - 1) + [e]))
        elif relator == "random":
            lines.append(draw(row))
        lines += ["word " + draw(word)
                  for _ in range(draw(st.integers(1, 2)))]
        if draw(st.booleans()):
            lines += ["subgroup"] + draw(st.lists(row, min_size=1, max_size=2))
        if draw(st.booleans()):
            lines.append("element " + draw(word))
        if draw(st.booleans()):
            lines.append(f"progression {draw(NUMBERS)} {draw(NUMBERS)}")
    if draw(RARELY):
        lines.insert(draw(st.integers(0, len(lines))), draw(MALFORMED))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(documents(), st.lists(NUMBERS, min_size=1, max_size=3))
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_documents_end_in_an_exit_status(fuzz_dir, text, numbers):
    f = doc(fuzz_dir, text)
    commands = [[name, f] for name in malcev.cli._FILE_COMMANDS]
    for argv in commands + [["member", "--track", f], ["extgcd", *numbers]]:
        status, out, err = invoke(argv)
        assert status in (0, 1, 2)
        if status == 2:
            assert err.startswith("error:") and err.count("\n") == 1
        else:
            assert err == ""
