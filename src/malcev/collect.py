"""Collection from the left for polycyclic-style nilpotent presentations.

The collector knows nothing about the series carrier used elsewhere: it
normalizes words purely by rewriting with the exchange relations
(g_j^{±1} g_i -> g_i g_j^{±1} tail) and the power relations
(g_i^{e_i} -> tail), so it provides an independent arithmetic for
consistency checking.  Every rewriting step is counted; exceeding the step
budget raises CollectionLimit, which consistency checks treat as failure.
"""

from __future__ import annotations

from .extgcd import InternalConsistencyError
from .freegroup import ExpWord, coords_to_word, structure_relations


class CollectionLimit(RuntimeError):
    """The step budget was exhausted before the word was collected."""


DEFAULT_STEP_CAP = 500_000


def invert_word(word: ExpWord) -> ExpWord:
    return tuple((g, -x) for g, x in reversed(word))


class Collector:
    def __init__(self, s: int,
                 orders: dict[int, int],
                 power_tails: dict[int, ExpWord],
                 alpha: dict[tuple[int, int], ExpWord],
                 beta: dict[tuple[int, int], ExpWord],
                 step_cap: int = DEFAULT_STEP_CAP):
        self.s = s
        self.orders = orders          # generator index -> relative order
        self.power_tails = power_tails
        self.alpha = alpha            # (i, j), i < j: conj tail of g_j by g_i
        self.beta = beta              # same for g_j^{-1}
        self.step_cap = step_cap
        self._steps = 0
        self._letter_memo: dict[tuple[int, int, int], tuple[ExpWord, ExpWord]] = {}

    # -- bookkeeping --------------------------------------------------------

    def _tick(self, n: int = 1) -> None:
        self._steps += n
        if self._steps > self.step_cap:
            raise CollectionLimit(f"step budget {self.step_cap} exhausted")

    # -- conjugation maps ---------------------------------------------------

    def _conj_letter(self, i: int, g: int, sign: int) -> tuple[ExpWord, ExpWord]:
        """Images of g^{+1} and g^{-1} under conjugation by g_i^{sign}."""
        key = (i, g, sign)
        memo = self._letter_memo.get(key)
        if memo is not None:
            return memo
        t_a = self.alpha.get((i, g), ())
        t_b = self.beta.get((i, g), ())
        if sign == 1:
            res = (((g, 1),) + t_a, ((g, -1),) + t_b)
        else:
            # The inverse map: g_i g g_i^{-1} = g * S with the defining map
            # sending g * S back to g, so S is the inverse image of the
            # inverted tail (a word over strictly larger generators).
            res = (((g, 1),) + self._conj_word(invert_word(t_a), i, -1),
                   ((g, -1),) + self._conj_word(invert_word(t_b), i, -1))
        self._letter_memo[key] = res
        return res

    def _conj_once(self, word: list[tuple[int, int]], i: int,
                   sign: int) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for g, x in word:
            if x == 0:
                continue
            pos, neg = self._conj_letter(i, g, sign)
            if len(pos) == 1 and len(neg) == 1:
                out.append((g, x))  # commutes with g_i
                continue
            img = pos if x > 0 else neg
            for _ in range(abs(x)):
                self._tick(len(img))
                out.extend(img)
        return out

    def _conj_word(self, word, i: int, power: int) -> tuple[tuple[int, int], ...]:
        """Conjugate a word over generators > i by g_i^{power}."""
        w = [f for f in word if f[1]]
        if power == 0 or not w:
            return tuple(w)
        if all(len(self._conj_letter(i, g, 1)[0]) == 1
               and len(self._conj_letter(i, g, 1)[1]) == 1 for g, _ in w):
            return tuple(w)  # everything commutes with g_i
        sign = 1 if power > 0 else -1
        for _ in range(abs(power)):
            self._tick()
            w = self._conj_once(w, i, sign)
        return tuple(w)

    # -- collection ---------------------------------------------------------

    def collect(self, word: ExpWord) -> tuple[int, ...]:
        self._steps = 0
        return tuple(self._collect(tuple(word), 1))

    def _collect(self, word, i: int) -> list[int]:
        if i > self.s:
            if word:
                raise InternalConsistencyError(
                    "letters left over after the last generator")
            return []
        y = 0
        rest: list[tuple[int, int]] = []
        for g, x in word:
            if x == 0:
                continue
            if not i <= g <= self.s:
                raise InternalConsistencyError(
                    f"letter {g} outside generators {i}..{self.s}")
            if g == i:
                rest = list(self._conj_word(rest, i, x))
                y += x
            else:
                rest.append((g, x))
        e = self.orders.get(i)
        if e:
            q, y = divmod(y, e)
            if q:
                tail = self.power_tails.get(i, ())
                rep = tail if q > 0 else invert_word(tail)
                self._tick(abs(q) * max(len(rep), 1))
                rest = list(rep) * abs(q) + rest
        return [y] + self._collect(rest, i + 1)


# ---------------------------------------------------------------------------
# Constructors for the two presentation flavours.

def collector_for_quotient(pres) -> Collector:
    basis = pres.basis
    sr = structure_relations(basis)
    alpha = {k: coords_to_word(v) for k, v in sr.alpha.items()}
    beta = {k: coords_to_word(v) for k, v in sr.beta.items()}
    orders: dict[int, int] = {}
    tails: dict[int, ExpWord] = {}
    for col, row in pres.torsion_rows.items():
        orders[col] = row[col - 1]
        suffix = tuple((j + 1, v) for j, v in enumerate(row) if v and j + 1 > col)
        tails[col] = invert_word(suffix)
    return Collector(basis.m, orders, tails, alpha, beta)


def collector_for_nilpotent(npres) -> Collector:
    orders = {i: e for i, e in enumerate(npres.orders, start=1) if e is not None}
    tails = {i: coords_to_word(v) for i, v in npres.power_tails.items()}
    alpha = {k: coords_to_word(v) for k, v in npres.alpha.items()}
    beta = {k: coords_to_word(v) for k, v in npres.beta.items()}
    return Collector(npres.s, orders, tails, alpha, beta)
