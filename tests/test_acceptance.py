"""End-to-end acceptance suite.

Each test prints a single `[PASS]`/`[FAIL]` line for its criterion (visible
even under pytest's capture) and exercises the library against independent
oracles: exhaustive searches, the unitriangular matrix model, and brute-force
enumeration of finite quotients.
"""

import functools
import io
import math
import random
import time

import malcev as M
from conftest import (FiniteGroup, apply_row_operation, hom_apply,
                      hom_image_of_letters, mat_of_coords, mat_of_word,
                      mat_mul, mat_pow,
                      nilpotent_presentation_consistent,
                      random_finite_presentation)
from malcev.cli import run as cli_run
from malcev.extgcd import extgcd_bounded, extgcd_pair_bounded
from malcev.freegroup import coords_to_word
from test_extgcd import oracle_pair
from test_subgroups import von_dyck_holds


def _report(capsys, name, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] {name}")
        raise
    with capsys.disabled():
        print(f"\n[PASS] {name}")


HEIS = M.free_presentation(2, 2)

# Every presentation touched by criteria 5-10 is collected here so that
# criterion 11 can run the consistency check over all of them.
USED_PRESENTATIONS: list = []


def _use(pres):
    if all(pres is not p for p in USED_PRESENTATIONS):
        USED_PRESENTATIONS.append(pres)
    return pres


@functools.lru_cache(maxsize=1)
def extgcd_trials():
    rng = random.Random(2024)
    trials = []
    start = time.monotonic()
    for _ in range(10**4):
        n = rng.randint(1, 32)
        a = [rng.randint(-500, 500) for _ in range(n)]
        if rng.random() < 0.2:
            for i in rng.sample(range(n), rng.randint(1, n)):
                a[i] = 0
        g, x, trace = extgcd_bounded(a)
        trials.append((a, g, x, trace))
    return trials, time.monotonic() - start


def test_01_bounded_extgcd_identity_and_bound(capsys):
    def body():
        trials, elapsed = extgcd_trials()
        assert len(trials) == 10**4
        for a, g, x, _ in trials:
            assert sum(xi * ai for xi, ai in zip(x, a)) == g
            if g:
                A = max(abs(v) // g for v in a)
                n = sum(1 for v in a if v)
                assert all(abs(v) <= (n + 1) * A * A for v in x)
            else:
                assert all(v == 0 for v in x)
        assert elapsed < 10.0
    _report(capsys, "1 bounded extgcd: identity and coefficient bound, < 10 s",
            body)


def test_02_trace_lemmas(capsys):
    def body():
        trials, _ = extgcd_trials()
        violations = 0
        for a, g, _, t in trials:
            if g == 0 or t.A == 1:
                continue
            n = len(t.a)
            pos = sum(1 for v in t.x_raw if v > 0)
            neg = sum(1 for v in t.x_raw if v < 0)
            try:
                assert t.P[-1] == t.N[-1]
                assert t.P_prime[-1] - t.N_prime[-1] <= neg
                assert t.N_prime[-1] - t.P_prime[-1] <= pos
                for i in range(n):
                    if t.x_raw[i] > 0:
                        assert sum(v for (j, i2), v in t.overlap.items()
                                   if i2 == i) == t.p[i]
                    if t.x_raw[i] < 0:
                        assert sum(v for (j, i2), v in t.overlap.items()
                                   if j == i) == t.n[i]
            except AssertionError:
                violations += 1
        assert violations == 0
    _report(capsys, "2 combination-trace lemmas: zero violations", body)


def test_03_pair_gcd_exhaustive(capsys):
    def body():
        for a in range(-40, 41):
            for b in range(-40, 41):
                assert extgcd_pair_bounded(a, b) == oracle_pair(a, b)
    _report(capsys, "3 pair gcd matches exhaustive bounded search", body)


def test_04_free_arithmetic_matrix_oracle(capsys):
    def body():
        rng = random.Random(404)
        for _ in range(10**3):
            word = tuple(
                (rng.randint(1, 2),
                 rng.randint(-(1 << 60), 1 << 60) if rng.random() < 0.1
                 else rng.randint(-9, 9))
                for _ in range(rng.randint(0, 50)))
            u = M.eval_free(HEIS.basis, word)
            assert mat_of_coords(u) == mat_of_word(word)
            v = tuple(rng.randint(-9, 9) for _ in range(3))
            prod = HEIS.basis.mult(u, v)
            assert mat_of_coords(prod) == mat_mul(mat_of_coords(u),
                                                  mat_of_coords(v))
            e = rng.randint(-20, 20)
            assert mat_of_coords(HEIS.basis.pow(u, e)) == mat_pow(
                mat_of_coords(u), e)
        start = time.monotonic()
        big = 1 << 60
        assert M.eval_free(HEIS.basis, ((1, big), (2, 1), (1, -big))) == (
            0, 1, -big)
        assert time.monotonic() - start < 1.0
    _report(capsys, "4 free arithmetic agrees with the unitriangular matrix"
            " model", body)


@functools.lru_cache(maxsize=1)
def presentation_pool():
    rng = random.Random(505)
    cheap = [_use(M.free_presentation(1, 2)), _use(M.free_presentation(2, 2))]
    for c in (1, 2, 3):
        for _ in range(3):
            cheap.append(_use(random_finite_presentation(rng, c, 2)))
    free3 = _use(M.free_presentation(3, 2))
    return cheap, free3


def _random_operation(rng, pres, n_rows):
    candidates = [("add_trivial",)]
    if pres.torsion:
        candidates.append(("add_relator", rng.choice(sorted(pres.torsion))))
    if n_rows:
        i = rng.randint(1, n_rows)
        j = rng.randint(1, n_rows)
        candidates += [("swap", i, j), ("invert", i),
                       ("append_product",
                        tuple((rng.randint(1, n_rows), rng.randint(-3, 3))
                              for _ in range(rng.randint(1, 3))))]
        if n_rows > 1 and i != j:
            candidates.append(("combine", i, j, rng.randint(-4, 4)))
    return rng.choice(candidates)


def test_05_full_form_uniqueness(capsys):
    def body():
        rng = random.Random(555)
        cheap, free3 = presentation_pool()
        for trial in range(500):
            pres = free3 if rng.random() < 0.12 else rng.choice(cheap)
            rows = [tuple(rng.randint(-20, 20) for _ in range(pres.m))
                    for _ in range(rng.randint(1, 6))]
            mat = M.coordinate_matrix(pres, rows)
            reference, _ = M.full_form(pres, mat)
            for _ in range(20):
                mat = apply_row_operation(
                    mat, _random_operation(rng, pres, len(mat.rows)))
            result, _ = M.full_form(pres, mat)
            assert result == reference
    _report(capsys, "5 full form is invariant under 20 random row operations"
            " (500 subgroups, c <= 3)", body)


def test_06_membership_oracle(capsys):
    def body():
        rng = random.Random(606)
        queries = 0
        while queries < 10**3:
            pres = _use(random_finite_presentation(rng, 2, 2))
            fg = FiniteGroup(pres)
            assert len(fg.elements) <= 10**4
            for _ in range(3):
                gens = [rng.choice(fg.elements)
                        for _ in range(rng.randint(1, 3))]
                closure = fg.subgroup_closure(gens)
                form, tracked = M.full_form(
                    pres, M.coordinate_matrix(pres, gens), track=True)
                for _ in range(60):
                    q = rng.choice(fg.elements)
                    queries += 1
                    w = M.membership(pres, form, M.element(pres, q))
                    assert (w is not None) == (q in closure)
                    if w is None:
                        continue
                    acc = M.identity(pres)
                    for row, gamma in zip(form.rows, w.gamma):
                        acc = M.mult(acc, M.power(M.element(pres, row), gamma))
                    assert acc.coords == q
                    word = M.express_in_original_generators(tracked, w)
                    acc = M.identity(pres)
                    for sym, e in word:
                        acc = M.mult(acc,
                                     M.power(M.element(pres, gens[sym - 1]), e))
                    assert acc.coords == q
    _report(capsys, "6 membership agrees with exhaustive enumeration; all"
            " witnesses re-evaluate exactly", body)


def test_07_subgroup_presentations(capsys):
    def body():
        rng = random.Random(707)
        cheap, _ = presentation_pool()
        for _ in range(100):
            pres = rng.choice(cheap)
            rows = [tuple(rng.randint(-6, 6) for _ in range(pres.m))
                    for _ in range(rng.randint(1, 4))]
            mat = M.coordinate_matrix(pres, rows)
            form, _ = M.full_form(pres, mat)
            npres = M.subgroup_presentation(pres, mat)
            assert npres.s == len(form.rows)
            assert nilpotent_presentation_consistent(npres)
            assert von_dyck_holds(pres, form.rows, npres)
    _report(capsys, "7 subgroup presentations are consistent and satisfied"
            " in the ambient group (100 subgroups)", body)


def test_08_kernels_and_preimages(capsys):
    def body():
        rng = random.Random(808)
        for _ in range(100):
            c = rng.choice([1, 2])
            src = _use(M.free_presentation(c, 2))
            tgt = (_use(random_finite_presentation(rng, c, 2))
                   if rng.random() < 0.6 else _use(M.free_presentation(c, 2)))
            w1 = [M.element(tgt, tuple(rng.randint(-3, 3)
                                       for _ in range(tgt.m)))
                  for _ in range(2)]
            images = hom_image_of_letters(src.basis, w1)
            gens = []
            for i in range(src.m):
                unit = [0] * src.m
                unit[i] = 1
                gens.append(M.element(src, unit))
            spec = M.HomSpec(src, tgt, tuple(gens), tuple(images))
            kernel, _ = M.kernel_and_preimage(spec)
            for k in kernel:
                assert hom_apply(images, k.coords).is_identity()
            g = M.element(src, tuple(rng.randint(-4, 4) for _ in range(src.m)))
            h = hom_apply(images, g.coords)
            _, pre = M.kernel_and_preimage(spec, h)
            assert hom_apply(images, pre.coords) == h
        # fixed map Z^2 -> Z, (1,0) -> t^2, (0,1) -> t^3
        src = _use(M.free_presentation(1, 2))
        tgt = _use(M.free_presentation(1, 1))
        spec = M.HomSpec(src, tgt,
                         (M.element(src, (1, 0)), M.element(src, (0, 1))),
                         (M.element(tgt, (2,)), M.element(tgt, (3,))))
        kernel, pre = M.kernel_and_preimage(spec, M.element(tgt, (1,)))
        assert [k.coords for k in kernel] == [(3, -2)]
        assert 2 * pre.coords[0] + 3 * pre.coords[1] == 1
    _report(capsys, "8 kernel generators map to the identity (100 random"
            " homomorphisms); rank-2-to-rank-1 fixture exact", body)


def test_09_centralizer_and_conjugacy(capsys):
    def body():
        # Heisenberg fixtures
        gens = M.centralizer(HEIS, M.element(HEIS, (1, 0, 0)))
        assert [z.coords for z in gens] == [(1, 0, 0), (0, 0, 1)]
        a1 = M.element(HEIS, (1, 0, 0))
        assert M.conjugacy(HEIS, M.element(HEIS, (1, 0, 2)), a1).conjugate
        assert not M.conjugacy(HEIS, M.element(HEIS, (0, 1, 0)), a1).conjugate
        rng = random.Random(909)
        instances = 0
        while instances < 200:
            pres = _use(random_finite_presentation(rng, 2, 2))
            fg = FiniteGroup(pres)
            assert len(fg.elements) <= 10**4
            for _ in range(25):
                instances += 1
                g = M.element(pres, rng.choice(fg.elements))
                zs = M.centralizer(pres, g)
                for z in zs:
                    assert M.mult(z, g) == M.mult(g, z)
                assert fg.subgroup_closure(
                    [z.coords for z in zs]) == fg.centralizer_brute(g.coords)
                if rng.random() < 0.5:
                    u = M.element(pres, rng.choice(fg.elements))
                    h = M.mult(M.mult(u, g), M.inverse(u))
                else:
                    h = M.element(pres, rng.choice(fg.elements))
                ans = M.conjugacy(pres, g, h)
                assert ans.conjugate == (
                    fg.conjugator_brute(g.coords, h.coords) is not None)
                if ans.conjugate:
                    u = ans.witness
                    assert M.mult(M.mult(M.inverse(u), h), u) == g
    _report(capsys, "9 centralizers and conjugacy match brute force"
            " (200 instances); Heisenberg fixtures pass", body)


def test_10_power_problem(capsys):
    def body():
        g = M.element(HEIS, (1, 1, 0))
        for k in range(1, 1001):
            assert M.power(g, k).coords == (k, k, k * (k - 1) // 2)
        assert M.power_problem(
            HEIS, g, M.element(HEIS, (1000, 1000, 1000 * 999 // 2))) == 1000
        rng = random.Random(1010)
        instances = 0
        while instances < 200:
            pres = _use(random_finite_presentation(rng, 2, 2))
            fg = FiniteGroup(pres)
            bound = M.torsion_bound(pres)
            for _ in range(25):
                instances += 1
                g = M.element(pres, rng.choice(fg.elements))
                h = M.element(pres, rng.choice(fg.elements))
                solutions = [k for k in range(bound) if M.power(g, k) == h]
                try:
                    k = M.power_problem(pres, g, h)
                except M.NoPower:
                    assert not solutions
                    continue
                # smallest non-negative k for torsion g
                assert solutions and k == solutions[0]
                order = M.element_order(g)
                assert order is not None and bound % order == 0
        # smallest-non-negative contract on a torsion fixture
        b = M.build_hall_basis(1, 1)
        z5 = _use(M.make_quotient_presentation(b, ((5,),)))
        g5 = M.element(z5, (1,))
        assert M.power_problem(z5, g5, M.element(z5, (2,))) == 2
        assert M.power_problem(z5, g5, M.identity(z5)) == 0
    _report(capsys, "10 power problem matches brute force and the closed"
            " form (a1 a2)^k = (k, k, k(k-1)/2)", body)


def test_11_quotient_presentations_consistent(capsys):
    def body():
        basis = M.build_hall_basis(1, 2)
        pres = M.from_finite_presentation(basis, [((1, 2),)])
        assert pres.relators.rows == ((2, 0),)
        assert len(USED_PRESENTATIONS) > 10
        for used in USED_PRESENTATIONS:
            assert M.consistency_check(used)
    _report(capsys, "11 quotient construction fixture exact; all"
            f" {len(USED_PRESENTATIONS)} presentations used above are"
            " consistent", body)


CLI_FIXTURES = [
    (["nf"], "group c=2 r=2\nword a2 a1\n"),
    (["wp"], "group c=2 r=2\nword a1^5 a1^-5\n"),
    (["member", "--track"],
     "group c=2 r=2\nsubgroup\nrow 2 0 0\nrow 0 1 0\nword a1^2 a2 a3^2\n"),
    (["fullform"], "group c=2 r=2\nsubgroup\nrow 2 0 0\nrow 0 1 0\n"),
    (["subpresent"], "group c=2 r=2\nsubgroup\nrow 2 0 0\nrow 0 1 0\n"),
    (["quotpres"], "group c=1 r=2\nword a1^2\n"),
    (["kernel"],
     "group c=1 r=2\nword a1\nword a2\ngroup c=1 r=1\nword a1^2\nword a1^3\n"),
    (["preimage"],
     "group c=1 r=2\nword a1\nword a2\ngroup c=1 r=1\nword a1^2\nword a1^3\n"
     "element a1\n"),
    (["centralizer"], "group c=2 r=2\nword a1\n"),
    (["conj"], "group c=2 r=2\nword a1 a3^2\nword a1\n"),
    (["power"], "group c=2 r=2\nword a1 a2\nword a1^3 a2^3 a3^3\n"),
    (["torsionbound"], "group c=1 r=2\nrow 2 0\nrow 0 3\n"),
]


def _cli(argv, text, tmp_path, name):
    path = tmp_path / name
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    status = cli_run(argv + [str(path)], out, err)
    return status, out.getvalue(), err.getvalue()


def _invert_word_text(text):
    from malcev.parsing import parse_word
    factors = parse_word(text.split(), 1, text)
    return " ".join(f"a{g}^{-e}" for g, e in reversed(factors))


def test_12_cli_determinism_and_witnesses(capsys, tmp_path):
    def body():
        for idx, (argv, text) in enumerate(CLI_FIXTURES):
            first = _cli(argv, text, tmp_path, f"f{idx}.txt")
            second = _cli(argv, text, tmp_path, f"f{idx}.txt")
            assert first == second
            assert first[0] == 0

        def wp_yes(word_text, name):
            res = _cli(["wp"], f"group c=2 r=2\nword {word_text}\n",
                       tmp_path, name)
            assert res[:2] == (0, "yes\n")

        # conjugacy witness: u^-1 h u g^-1 = 1
        _, out, _ = _cli(["conj"], "group c=2 r=2\nword a1 a3^2\nword a1\n",
                         tmp_path, "w1.txt")
        w = out.splitlines()[1].removeprefix("witness ")
        wp_yes(f"{_invert_word_text(w)} a1 {w} a3^-2 a1^-1", "w1c.txt")

        # membership gamma against the printed full form: (prod rows^gamma)
        # then the inverse of the query must collapse to the identity
        _, out, _ = _cli(
            ["member"],
            "group c=2 r=2\nsubgroup\nrow 2 0 0\nrow 0 1 0\nword a1^2 a2 a3^2\n",
            tmp_path, "w2.txt")
        gamma = [int(v) for v in out.splitlines()[1].split()[1:]]
        _, out, _ = _cli(["fullform"],
                         "group c=2 r=2\nsubgroup\nrow 2 0 0\nrow 0 1 0\n",
                         tmp_path, "w3.txt")
        parts = []
        for line, gm in zip(out.splitlines(), gamma):
            row = tuple(int(v) for v in line.split()[1:])
            word = coords_to_word(row)
            parts.extend([f"a{g}^{e}" for g, e in word] * gm)
        parts.append(_invert_word_text("a1^2 a2 a3^2"))
        wp_yes(" ".join(parts), "w2c.txt")

        # power answer: g repeated k times times h^-1
        _, out, _ = _cli(["power"],
                         "group c=2 r=2\nword a1 a2\nword a1^3 a2^3 a3^3\n",
                         tmp_path, "w4.txt")
        k = int(out.splitlines()[1].split()[1])
        wp_yes(" ".join(["a1 a2"] * k) + " "
               + _invert_word_text("a1^3 a2^3 a3^3"), "w4c.txt")
    _report(capsys, "12 CLI output byte-deterministic; printed witnesses"
            " re-verify through wp", body)
