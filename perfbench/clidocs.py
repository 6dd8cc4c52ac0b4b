"""Seeded CLI documents of the cli_cold workload and their answer checkers.

Each document is run in a fresh interpreter through `cli_child.py`.  Its exit
code and stdout must equal the answer the library gives in the parent
process, and a checker re-verifies every printed witness with the library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from workloads import generator_sums, inverse_word, product

# `member --track` with three subgroup rows of entries this large exceeds the
# expansion cap of the printed word: a known defect, run only as a probe.
CAP_ENTRY = 30
SMALL_ENTRY = 2


@dataclass
class CliDoc:
    name: str
    argv: list[str]
    text: str
    check: Callable[[int, str], str | None]


def word_text(word) -> str:
    return " ".join(f"a{g}^{x}" for g, x in word)


def parse_word_text(text: str):
    if text.strip() == "1":
        return ()
    out = []
    for tok in text.split():
        g, _, x = tok[1:].partition("^")
        out.append((int(g), int(x)))
    return tuple(out)


def _rand_word(rng, m, length=6, bound=1000):
    return tuple((rng.randint(1, m), rng.randint(-bound, bound))
                 for _ in range(length))


def _rand_row(rng, m, bound):
    while True:
        row = [rng.randint(-bound, bound) for _ in range(m)]
        if any(row):
            return row


def _general_rows(rng, m, bound, count):
    """Rows whose first two coordinates (the image in the abelianization of
    a rank-2 group) are independent, or all nonzero for a single row.  The
    cost of a subgroup or centralizer computation jumps between degenerate
    and general inputs; keeping every seed general keeps runs comparable."""
    while True:
        rows = [_rand_row(rng, m, bound) for _ in range(count)]
        if count == 1 and all(rows[0][:2]):
            return rows
        if count >= 2 and rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
            return rows


def judge(expected: tuple[int, str], verdict: str | None,
          got: tuple[int, str]) -> str | None:
    """Why a cold (exit code, stdout) is wrong, or None.  It must equal the
    in-process answer `expected`, whose checker gave `verdict`."""
    if got != expected:
        return (f"cold answer {got!r:.120} differs from in-process"
                f" {expected!r:.120}")
    return verdict


def _expect(code, first=None):
    def check(got_code, out):
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if first is not None and out.splitlines()[:1] != [first]:
            return f"first line {out.splitlines()[:1]}, expected {first!r}"
        return None
    return check


def _then(*checks):
    def check(code, out):
        for c in checks:
            reason = c(code, out)
            if reason:
                return reason
        return None
    return check


def _relator_rows(pres) -> str:
    return "".join("row " + " ".join(map(str, row)) + "\n"
                   for row in pres.relators.rows)


def member_doc(M, rng, c, r, entry, name, n_rows=2):
    pres = M.free_presentation(c, r)
    rows = _general_rows(rng, pres.m, entry, n_rows)
    gens = [M.element(pres, row) for row in rows]
    h = product(M, pres, ((g, rng.choice((-2, -1, 1, 2))) for g in gens))
    text = (f"group c={c} r={r}\nsubgroup\n"
            + "".join("row " + " ".join(map(str, row)) + "\n" for row in rows)
            + f"word {word_text(M.coords_to_word(h.coords))}\n")
    form, _ = M.full_form(pres, M.coordinate_matrix(pres, rows))
    form_rows = [M.element(pres, row) for row in form.rows]

    def witnesses(code, out):
        lines = out.splitlines()
        gamma = [int(v) for v in lines[1].split()[1:]]
        if product(M, pres, zip(form_rows, gamma)) != h:
            return "gamma does not evaluate to the element"
        word = parse_word_text(lines[2].removeprefix("word "))
        if product(M, pres, ((gens[k - 1], x) for k, x in word)) != h:
            return "tracked word does not evaluate to the element"
        return None
    return CliDoc(name, ["member", "--track"], text,
                  _then(_expect(0, "yes"), witnesses))


def cli_documents(seed: int, batch: int = 0) -> list[CliDoc]:
    """One batch of documents; each batch of a seed draws its own."""
    import malcev as M
    rng = random.Random(f"cli/{seed}/{batch}")
    docs: list[CliDoc] = []

    for c, r in ((2, 2), (3, 2), (3, 3), (4, 2), (5, 3)):
        pres = M.free_presentation(c, r)
        head = f"group c={c} r={r}\n"
        for bound in (1000, 10 ** 18):
            w = _rand_word(rng, pres.m, bound=bound)
            nf = M.normal_form(pres, w).coords

            def nf_check(code, out, nf=nf):
                got = tuple(int(v) for v in out.split())
                return None if got == nf else "wrong normal form"
            docs.append(CliDoc(f"nf@{c},{r}", ["nf"],
                               head + f"word {word_text(w)}\n",
                               _then(_expect(0), nf_check)))

        w = _rand_word(rng, pres.m)
        while not any(generator_sums(pres, w)):
            w = _rand_word(rng, pres.m)
        docs.append(CliDoc(f"wp_yes@{c},{r}", ["wp"],
                           head + f"word {word_text(w + inverse_word(w))}\n",
                           _expect(0, "yes")))
        docs.append(CliDoc(f"wp_no@{c},{r}", ["wp"],
                           head + f"word {word_text(w)}\n", _expect(1, "no")))

        if c < 5:
            g = M.element(pres, _rand_row(rng, pres.m, SMALL_ENTRY))
            k = rng.randint(2, 40)
            h = M.power(g, k)
            text = (head + f"word {word_text(M.coords_to_word(g.coords))}\n"
                    f"word {word_text(M.coords_to_word(h.coords))}\n")
            prog = (k % 3, 3) if rng.random() < 0.5 else None
            if prog:
                text += f"progression {prog[0]} {prog[1]}\n"

            def power_check(code, out, g=g, h=h, prog=prog):
                k = int(out.splitlines()[1].split()[1])
                if M.power(g, k) != h:
                    return "g^k differs from h"
                if prog and (k - prog[0]) % prog[1]:
                    return "k outside the progression"
                return None
            docs.append(CliDoc(f"power@{c},{r}", ["power"], text,
                               _then(_expect(0, "yes"), power_check)))

    for c, r in ((2, 2), (3, 2)):
        pres = M.free_presentation(c, r)
        head = f"group c={c} r={r}\n"
        docs.append(member_doc(M, rng, c, r, SMALL_ENTRY, f"member_track@{c},{r}"))

        rows = _general_rows(rng, pres.m, SMALL_ENTRY, 2)
        sub = "subgroup\n" + "".join(
            "row " + " ".join(map(str, row)) + "\n" for row in rows)
        form, _ = M.full_form(pres, M.coordinate_matrix(pres, rows))
        expected_rows = "".join("row " + " ".join(map(str, row)) + "\n"
                                for row in form.rows)
        docs.append(CliDoc(f"fullform@{c},{r}", ["fullform"], head + sub,
                           lambda code, out, e=expected_rows:
                           None if (code, out) == (0, e) else "wrong full form"))
        rows = _general_rows(rng, pres.m, SMALL_ENTRY, 2)
        sub = "subgroup\n" + "".join(
            "row " + " ".join(map(str, row)) + "\n" for row in rows)
        docs.append(CliDoc(f"subpresent@{c},{r}", ["subpresent"], head + sub,
                           _expect(0)))

        # At (3,2) the cost depends strongly on p, so it is fixed there.
        p = rng.choice((2, 3, 4)) if c == 2 else 3
        docs.append(CliDoc(f"quotpres@{c},{r}", ["quotpres"],
                           head + f"word a1^{p}\nword a2^{p}\n",
                           _expect(0, f"group c={c} r={r}")))

        g = M.element(pres, _general_rows(rng, pres.m, SMALL_ENTRY, 1)[0])
        text = head + f"word {word_text(M.coords_to_word(g.coords))}\n"

        def cent_check(code, out, g=g, pres=pres):
            for line in out.splitlines():
                z = M.element(pres, [int(v) for v in line.split()[1:]])
                if M.mult(z, g) != M.mult(g, z):
                    return "centralizer row does not commute"
            return None
        docs.append(CliDoc(f"centralizer@{c},{r}", ["centralizer"], text,
                           _then(_expect(0), cent_check)))

        g = M.element(pres, _general_rows(rng, pres.m, SMALL_ENTRY, 1)[0])
        x = M.normal_form(pres, _rand_word(rng, pres.m, bound=5))
        h = M.mult(M.mult(x, g), M.inverse(x))
        text = (head + f"word {word_text(M.coords_to_word(g.coords))}\n"
                f"word {word_text(M.coords_to_word(h.coords))}\n")

        def conj_check(code, out, g=g, h=h, pres=pres):
            u = parse_word_text(out.splitlines()[1].removeprefix("witness "))
            word = (inverse_word(u) + M.coords_to_word(h.coords) + u
                    + inverse_word(M.coords_to_word(g.coords)))
            return None if M.word_problem(pres, word) else "wrong conjugator"
        docs.append(CliDoc(f"conj@{c},{r}", ["conj"], text,
                           _then(_expect(0, "yes"), conj_check)))

    # A homomorphism from F(2,2) onto a finite quotient of it.
    p = rng.choice((2, 3, 4))
    target = M.from_finite_presentation(M.build_hall_basis(2, 2),
                                        [((1, p),), ((2, p),)])
    hom = ("group c=2 r=2\nword a1\nword a2\n"
           "group c=2 r=2\n" + _relator_rows(target) + "word a1\nword a2\n")
    docs.append(CliDoc("kernel@2,2", ["kernel"], hom, _expect(0)))
    w = _rand_word(rng, 2, bound=9)
    docs.append(CliDoc("preimage@2,2", ["preimage"],
                       hom + f"element {word_text(w)}\n", _expect(0, "yes")))

    q = rng.choice((2, 3))
    quot = M.from_finite_presentation(M.build_hall_basis(3, 2),
                                      [((1, q),), ((2, q),)])
    bound = math.prod(quot.torsion.values())
    docs.append(CliDoc("torsionbound@3,2", ["torsionbound"],
                       "group c=3 r=2\n" + _relator_rows(quot),
                       _expect(0, str(bound))))

    for n in (64, rng.randint(65, 256)):
        common = rng.randint(1, 1000)
        nums = [common * rng.randint(-(1 << 64), 1 << 64) for _ in range(n)]

        def gcd_check(code, out, nums=nums):
            lines = out.splitlines()
            g = int(lines[0])
            x = [int(v) for v in lines[1].split()]
            if g != math.gcd(*nums) or sum(a * b for a, b in zip(x, nums)) != g:
                return "not a gcd combination"
            support = [abs(v) // g for v in nums if v]
            big_a = max(max(support), 1)
            if max(abs(v) for v in x) > (len(support) + 1) * big_a * big_a:
                return "coefficient above the bound"
            return None
        docs.append(CliDoc(f"extgcd@{n}", ["extgcd", *map(str, nums)], "",
                           _then(_expect(0), gcd_check)))
    return docs


def cli_probes(seed: int) -> list[CliDoc]:
    """`member --track` documents with large subgroup entries: the expanded
    witness often exceeds the word cap (exit 2), a known defect."""
    import malcev as M
    rng = random.Random(seed ^ 0xCA9)
    return [member_doc(M, rng, 3, 2, CAP_ENTRY, f"probe_member_track_cap{i}",
                       n_rows=3)
            for i in range(3)]
