"""Power polynomials of the free nilpotent group of class 3 and rank 2.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5 = u
    t0 = u1*u2
    t1 = u1*u3
    t2 = u1*u1*u2
    t3 = u2*u3
    t4 = t0*u2
    return (
        u1*e,
        u2*e,
        (t0*e + 2*u3 - t0)*e // 2,
        ((2*t2*e - 3*t0 + 6*t1 - 3*t2)*e + 12*u4 + 3*t0 - 6*t1 + t2)*e // 12,
        ((4*t4*e - 3*t0 + 6*t3 - 3*t4)*e + 12*u5 + 3*t0 - 6*t3 - t4)*e // 12,
    )
