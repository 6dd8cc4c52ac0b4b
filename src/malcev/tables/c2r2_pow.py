"""Power polynomials of the free nilpotent group of class 2 and rank 2.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def pow(u, e):
    u1, u2, u3 = u
    t0 = u1*u2
    return (
        u1*e,
        u2*e,
        (t0*e + 2*u3 - t0)*e // 2,
    )
