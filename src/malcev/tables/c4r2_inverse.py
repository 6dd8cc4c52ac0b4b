"""Inverse polynomials of the free nilpotent group of class 4 and rank 2.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def inverse(u):
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    t0 = u1*u2
    t1 = u1*u3
    t2 = u1*u1
    t3 = t2*u2
    t4 = u2*u3
    t5 = t0*u2
    return (
        -u1,
        -u2,
        -u3 + t0,
        (-2*u4 - t0 + 2*t1 - t3) // 2,
        (-2*u5 - t0 + 2*t4 - t5) // 2,
        (-6*u6 + 2*t0 - 3*t1 + 6*u1*u4 + 3*t3 - 3*t2*u3 + t2*u1*u2) // 6,
        (-4*u7 + t0 + 4*u1*u5 + 4*u2*u4 + t3 + t5 - 4*t0*u3 + t3*u2) // 4,
        (-6*u8 + 2*t0 - 3*t4 + 6*u2*u5 + 3*t5 - 3*u2*u2*u3 + t5*u2) // 6,
    )
