import io
import os
import subprocess
import sys

import pytest

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
    f = doc(tmp_path, "group c=2 r=2\nfrobnicate\n")
    status, _, err = invoke(["nf", f])
    assert status == 2 and "line 2" in err


def test_input_errors(tmp_path):
    assert invoke(["nf", str(tmp_path / "missing.txt")])[0] == 2
    # malformed relator matrix rejected with position information
    f = doc(tmp_path, "group c=1 r=2\nrow 0 0\nword a1\n")
    status, _, err = invoke(["nf", f])
    assert status == 2 and "error:" in err
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
