"""Multiplication polynomials of the free nilpotent group of class 4 and rank 2.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    v1, v2, v3, v4, v5, v6, v7, v8 = v
    t0 = u2*v1
    t1 = u3*v1
    t2 = t0*v1
    t3 = u3*v2
    t4 = u2*u2
    t5 = t4*v1
    t6 = t0*v2
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3 + t0,
        (2*u4 + 2*v4 - t0 + 2*t1 + t2) // 2,
        (2*u5 + 2*v5 - t0 + 2*t3 + t5 + 2*t6) // 2,
        (6*u6 + 6*v6 + 2*t0 - 3*t1 + 6*u4*v1 - 3*t2 + 3*t1*v1 + t2*v1) // 6,
        (4*u7 + 4*v7 + t0 + 4*u4*v2 + 4*u5*v1 - t5 - t2 - 2*t6 + 4*t1*v2 + t5*v1 + 2*t2*v2) // 4,
        (6*u8 + 6*v8 + 2*t0 - 3*t3 + 6*u5*v2 - 3*t5 - 6*t6 + 3*t3*v2 + t4*u2*v1 + 3*t5*v2 + 3*t6*v2) // 6,
    )
