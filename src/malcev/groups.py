"""Elements of a quotient presentation and their normal-form arithmetic.

A normal form is an exponent vector whose entry at every torsion column lies
in [0, e); `reduce_coords` computes it.

Elements compare and hash by value.  No field is assigned after
construction: they are treated as immutable, which nothing enforces.
"""

from __future__ import annotations

from .extgcd import RejectedInput
from .freegroup import ExpWord, check_lengths, eval_free
from .presentations import QuotientPresentation, reduce_coords


class GroupElement:
    """An element in normal form.  The raw constructor trusts its
    coordinates to have the right length and be in normal form; `element`
    and `normal_form` are the constructors that check and reduce."""
    __slots__ = ("presentation", "coords")

    def __init__(self, presentation: QuotientPresentation,
                 coords: tuple[int, ...]):
        self.presentation = presentation
        self.coords = coords

    def __eq__(self, other):
        if other.__class__ is not GroupElement:
            return NotImplemented
        return (self.presentation, self.coords) == (
            other.presentation, other.coords)

    def __hash__(self):
        return hash((self.presentation, self.coords))

    def is_identity(self) -> bool:
        return not any(self.coords)


def normal_form(pres: QuotientPresentation, word: ExpWord) -> GroupElement:
    return GroupElement(pres, reduce_coords(pres, eval_free(pres.basis, word)))


def element(pres: QuotientPresentation, coords) -> GroupElement:
    """Element with the given (not necessarily reduced) exponent vector."""
    coords = tuple(coords)
    check_lengths(pres.basis, coords)
    return GroupElement(pres, reduce_coords(pres, coords))


def identity(pres: QuotientPresentation) -> GroupElement:
    return GroupElement(pres, pres.identity)


def word_problem(pres: QuotientPresentation, word: ExpWord) -> bool:
    """True iff the word represents the identity."""
    return normal_form(pres, word).is_identity()


def _same(u: GroupElement, v: GroupElement) -> QuotientPresentation:
    if u.presentation != v.presentation:
        raise RejectedInput("elements live in different presentations")
    return u.presentation


def mult(u: GroupElement, v: GroupElement) -> GroupElement:
    pres = _same(u, v)
    return GroupElement(pres, pres.mult(u.coords, v.coords))


def inverse(u: GroupElement) -> GroupElement:
    return power(u, -1)


def power(u: GroupElement, e: int) -> GroupElement:
    if type(e) is not int:
        raise RejectedInput(f"exponent {e!r} is not an integer")
    pres = u.presentation
    return GroupElement(pres, pres.pow(u.coords, e))
