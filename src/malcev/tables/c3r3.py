"""Multiplication polynomials of the free nilpotent group of class 3 and rank 3.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14 = u
    v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 = v
    t0 = u2*v1
    t1 = u3*v1
    t2 = u3*v2
    t3 = u6*v1
    t4 = u3*u3
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3,
        u4 + v4 + t0,
        u5 + v5 + t1,
        u6 + v6 + t2,
        (2*u7 + 2*v7 - t0 + 2*u4*v1 + t0*v1) // 2,
        (2*u8 + 2*v8 - t0 + 2*u4*v2 + u2*u2*v1 + 2*t0*v2) // 2,
        u9 + v9 + u4*v3 - t3 + u2*u3*v1 + t0*v3,
        (2*u10 + 2*v10 - t1 + 2*u5*v1 + t1*v1) // 2,
        u11 + v11 + u5*v2 + t3 + t1*v2,
        (2*u12 + 2*v12 - t1 + 2*u5*v3 + t4*v1 + 2*t1*v3) // 2,
        (2*u13 + 2*v13 - t2 + 2*u6*v2 + t2*v2) // 2,
        (2*u14 + 2*v14 - t2 + 2*u6*v3 + t4*v2 + 2*t2*v3) // 2,
    )
