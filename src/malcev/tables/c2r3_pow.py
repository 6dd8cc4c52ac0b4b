"""Power polynomials of the free nilpotent group of class 2 and rank 3.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6 = u
    t0 = u1*u2
    t1 = u1*u3
    t2 = u2*u3
    return (
        u1*e,
        u2*e,
        u3*e,
        (t0*e + 2*u4 - t0)*e // 2,
        (t1*e + 2*u5 - t1)*e // 2,
        (t2*e + 2*u6 - t2)*e // 2,
    )
