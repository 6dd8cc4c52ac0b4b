"""The paper's cost shape: for a fixed class and rank, a procedure's group
operations do not grow with the bit-length of its entries.  They are
counted as compiled calls with the `table_calls` meter, at two entry sizes
16x apart."""

import random

import pytest

import malcev as M
from conftest import hom_apply, hom_image_of_letters
from malcev import decisions, subgroups
from test_subgroups import CountingContext

SEEDS = (1, 2, 3)
SMALL, LARGE = 16, 256  # entries in [-2^bits, 2^bits]
# The largest growth measured from 16-bit to 256-bit entries, over seeds
# 1-3 at (3,2) and (4,2), is membership's at (3,2): 9 to 13 calls.  Full
# forms and kernels make fewer calls on the larger entries.
SLACK = 8
PROCEDURES = ("full form", "membership", "centralizer", "conjugacy",
              "power problem", "kernel", "power problem in a progression")


def metered_bases(table_calls):
    return table_calls(*(M.build_hall_basis(c, 2) for c in (2, 3, 4)))


def compiled_calls(calls, c, seed, bits):
    """The compiled calls of each procedure in F(c,2) on entries drawn in
    [-2^bits, 2^bits] by `random.Random(seed)`, each from empty descent
    caches, with its inputs built outside the count."""
    pres, target = M.free_presentation(c, 2), M.free_presentation(2, 2)
    rng = random.Random(seed)
    bound = 1 << bits

    def draw():
        return tuple(rng.randint(-bound, bound) for _ in range(pres.m))

    out = {}

    def count(name, procedure, *args):
        for cache in (decisions._tower, decisions._layer):
            cache.cache_clear()
        calls.clear()
        answer = procedure(*args)
        out[name] = calls.total()
        return answer

    rows = [draw() for _ in range(3)]
    form, _ = count("full form", M.full_form, pres,
                    M.coordinate_matrix(pres, rows))
    h = M.mult(M.power(M.element(pres, rows[0]), rng.randint(-3, 3)),
               M.power(M.element(pres, rows[2]), rng.randint(-3, 3)))
    assert count("membership", M.membership, pres, form, h) is not None
    g, x = M.element(pres, draw()), M.element(pres, draw())
    count("centralizer", M.centralizer, pres, g)
    h = M.mult(M.mult(x, g), M.inverse(x))
    assert count("conjugacy", M.conjugacy, pres, g, h).conjugate
    assert count("power problem", M.power_problem, pres, g,
                 M.power(g, 12345)) == 12345
    letters = hom_image_of_letters(pres.basis, [
        M.element(target, (1, 0, 0)), M.element(target, (0, 1, 0))])
    gens = [draw() for _ in range(3)]
    spec = M.HomSpec(pres, target, tuple(M.element(pres, v) for v in gens),
                     tuple(hom_apply(letters, v) for v in gens))
    kernel, _ = count("kernel", M.kernel_and_preimage, spec)
    assert all(hom_apply(letters, z.coords).is_identity() for z in kernel)
    alpha, beta = rng.randint(-bound, bound), rng.randint(1, bound)
    k = alpha + beta * rng.randint(-3, 3)
    assert count("power problem in a progression", M.power_problem, pres, g,
                 M.power(g, k), (alpha, beta)) == k
    return out


@pytest.mark.parametrize("c", [3, 4])
def test_compiled_calls_do_not_grow_with_the_entries(c, table_calls):
    calls = metered_bases(table_calls)
    small, large = ([compiled_calls(calls, c, seed, bits) for seed in SEEDS]
                    for bits in (SMALL, LARGE))
    for name in PROCEDURES:
        most = max(run[name] for run in small)
        assert max(run[name] for run in large) <= most + SLACK, name


def test_a_sift_by_unit_steps_breaks_the_bound(table_calls, monkeypatch):
    # A planted sift whose `_times` takes b^l as |l| products by b or b^-1
    # does work that grows with the entries.  On 256-bit entries at (3,2)
    # it cannot finish within ten times the full form's bound, and by then
    # it has made more compiled calls than the bound allows.
    calls = metered_bases(table_calls)
    bound = max(compiled_calls(calls, 3, seed, SMALL)["full form"]
                for seed in SEEDS) + SLACK

    def unit_steps(ctx, a, b, l):
        step = b[0] if l > 0 else ctx.pow(b[0], -1)
        row = a[0]
        for _ in range(abs(l)):
            row = ctx.mult(row, step)
        return row, a[1]  # untracked rows keep the placeholder

    monkeypatch.setattr(subgroups, "_times", unit_steps)
    pres = M.free_presentation(3, 2)
    rng = random.Random(1)
    rows = [tuple(rng.randint(-(1 << LARGE), 1 << LARGE)
                  for _ in range(pres.m)) for _ in range(3)]
    calls.clear()
    with pytest.raises(RuntimeError, match="group operations"):
        subgroups.full_form_rows(CountingContext(pres, 10 * bound), rows)
    assert calls.total() > bound
