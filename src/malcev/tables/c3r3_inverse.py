"""Inverse polynomials of the free nilpotent group of class 3 and rank 3.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def inverse(u):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14 = u
    t0 = u1*u2
    t1 = u1*u3
    t2 = u2*u3
    t3 = u1*u1
    t4 = u1*u6
    return (
        -u1,
        -u2,
        -u3,
        -u4 + t0,
        -u5 + t1,
        -u6 + t2,
        (-2*u7 - t0 + 2*u1*u4 - t3*u2) // 2,
        (-2*u8 - t0 + 2*u2*u4 - t0*u2) // 2,
        -u9 - t4 + u3*u4,
        (-2*u10 - t1 + 2*u1*u5 - t3*u3) // 2,
        -u11 + t4 + u2*u5 - t0*u3,
        (-2*u12 - t1 + 2*u3*u5 - t1*u3) // 2,
        (-2*u13 - t2 + 2*u2*u6 - u2*u2*u3) // 2,
        (-2*u14 - t2 + 2*u3*u6 - t2*u3) // 2,
    )
