"""Self-test of the benchmark's answer checkers: each must accept the
library's answer and reject a corrupted one.

    python3 -m pytest perfbench/test_checkers.py -q
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import malcev as M  # noqa: E402
import clidocs  # noqa: E402
import workloads  # noqa: E402
from worker import _cli_expected  # noqa: E402


@pytest.fixture(scope="module")
def heis3():
    pres = M.from_finite_presentation(M.build_hall_basis(2, 2),
                                      [((1, 3),), ((2, 3),)])
    return pres, workloads.FiniteOracle(pres)


def answer(pres, kind, elements, numbers=(), words=()):
    """The encoded answers of one step, as the worker returns them."""
    decoded = [M.element(pres, c) for c in elements]
    results = []
    for call in workloads.queries(M, pres, kind, decoded, list(numbers),
                                  list(words)):
        results.append(call(results))
    return workloads.encode(results)


def test_oracle_agrees_with_library(heis3):
    pres, oracle = heis3
    rng = random.Random(5)
    for _ in range(50):
        g, h = rng.choice(oracle.elements), rng.choice(oracle.elements)
        e = rng.randint(-7, 7)
        assert oracle.mult(g, h) == M.mult(M.element(pres, g),
                                           M.element(pres, h)).coords
        assert oracle.inverse(g) == M.inverse(M.element(pres, g)).coords
        assert oracle.power(g, e) == M.power(M.element(pres, g), e).coords


def test_member_checker_rejects_wrong_gamma_and_word(heis3):
    pres, oracle = heis3
    gens, h = [(1, 0, 0), (0, 1, 0)], (1, 1, 2)
    (rows, gamma, word), = answer(pres, "member", gens + [h])
    assert workloads.check_member(oracle, gens, h, [(rows, gamma, word)]) is None
    bad_gamma = [gamma[0] + 1] + gamma[1:]
    assert workloads.check_member(oracle, gens, h, [(rows, bad_gamma, word)])
    bad_word = word + [[1, 1]]
    assert workloads.check_member(oracle, gens, h, [(rows, gamma, bad_word)])
    assert workloads.check_member(oracle, gens, h, [(rows, None, None)])


def test_conjugacy_checker_rejects_wrong_conjugator(heis3):
    pres, oracle = heis3
    g, x = (1, 0, 0), (0, 1, 0)
    h = oracle.mult(oracle.mult(x, g), oracle.inverse(x))
    answers = answer(pres, "conjugacy", [g, h])
    assert workloads.check_conjugacy(oracle, g, h, answers) is None
    assert workloads.check_conjugacy(oracle, g, h, [[0, 0, 0]])
    assert workloads.check_conjugacy(oracle, g, h, [None])


def test_power_and_order_checkers_reject_off_by_one(heis3):
    pres, oracle = heis3
    g = (1, 2, 0)
    h = oracle.power(g, 2)
    (k,) = answer(pres, "power_problem", [g, h])
    assert workloads.check_power(oracle, g, h, [k]) is None
    assert workloads.check_power(oracle, g, h, [k + 1])
    assert workloads.check_power(oracle, g, h, [None])
    (order,) = answer(pres, "element_order", [g])
    assert workloads.check_order(oracle, g, [order]) is None
    assert workloads.check_order(oracle, g, [order + 1])


def test_centralizer_checker_rejects_wrong_generators(heis3):
    pres, oracle = heis3
    g = (1, 0, 0)
    answers = answer(pres, "centralizer", [g])
    assert workloads.check_centralizer(oracle, g, answers) is None
    assert workloads.check_centralizer(oracle, g, [answers[0] + [[0, 1, 0]]])
    assert workloads.check_centralizer(oracle, g, [[[0, 0, 1]]])


def test_large_prime_checkers_reject_off_by_one():
    pres = M.from_finite_presentation(M.build_hall_basis(1, 2),
                                      [((1, 101),), ((2, 103),)])
    g = M.element(pres, (5, 7))
    h = M.power(g, 5000)
    assert workloads.check_abelian_order(pres, g, [101 * 103]) is None
    assert workloads.check_abelian_order(pres, g, [101 * 103 + 1])
    k = M.power_problem(pres, g, h)
    assert workloads.check_abelian_power(M, pres, g, h, 5000, [k]) is None
    assert workloads.check_abelian_power(M, pres, g, h, 5000, [k + 1])


@pytest.mark.parametrize("kind", workloads.DEEP_KINDS)
def test_deep_checker_rejects_corrupted_answer(kind):
    pres = M.free_presentation(2, 2)
    plan = workloads.Plan([pres], [])
    step = workloads.deep_step(random.Random(1), 0, pres, kind)
    wire = json.loads(json.dumps(step.wire()))
    answers = json.loads(json.dumps(answer(pres, kind, *wire[2:])))
    assert workloads.check(M, plan, step, answers) is None
    if kind == "word_problem":
        answers[-1] = not answers[-1]
    else:
        answers[-1][0] += 1
    assert workloads.check(M, plan, step, answers)


@pytest.fixture(scope="module")
def cli_docs():
    docs = clidocs.cli_documents(3)
    return [(doc, _cli_expected(doc)) for doc in docs]


def test_cli_checkers_accept_library_answers(cli_docs):
    for doc, (code, out) in cli_docs:
        assert doc.check(code, out) is None, doc.name


def test_cli_checkers_reject_wrong_exit_code(cli_docs):
    for doc, (code, out) in cli_docs:
        assert doc.check(code + 1, out), doc.name


def test_cli_judge_rejects_stdout_mismatch(cli_docs):
    for doc, (code, out) in cli_docs:
        assert clidocs.judge((code, out), None, (code, out)) is None
        assert clidocs.judge((code, out), None, (code, out + "1\n")), doc.name


def _edit_line(out, index, fn):
    lines = out.splitlines()
    lines[index] = fn(lines[index])
    return "\n".join(lines) + "\n"


def test_cli_witness_checkers_reject_corrupted_witnesses(cli_docs):
    seen = set()
    for doc, (code, out) in cli_docs:
        kind = doc.name.split("@")[0]
        if kind == "power":
            bad = _edit_line(out, 1, lambda s: f"k {int(s.split()[1]) + 1}")
        elif kind == "member_track":
            bad = _edit_line(out, 1, lambda s: "gamma " + " ".join(
                str(int(v) + (i == 0)) for i, v in enumerate(s.split()[1:])))
        elif kind == "conj":
            bad = _edit_line(out, 1, lambda s: s.removesuffix(" 1") + " a1^1 a2^1")
        elif kind == "extgcd":
            bad = _edit_line(out, 0, lambda s: str(int(s) * 2))
        else:
            continue
        seen.add(kind)
        assert doc.check(code, bad), doc.name
    assert seen == {"power", "member_track", "conj", "extgcd"}
