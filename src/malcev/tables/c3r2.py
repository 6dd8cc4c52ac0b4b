"""Multiplication polynomials of the free nilpotent group of class 3 and rank 2.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5 = u
    v1, v2, v3, v4, v5 = v
    t0 = u2*v1
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3 + t0,
        (2*u4 + 2*v4 - t0 + 2*u3*v1 + t0*v1) // 2,
        (2*u5 + 2*v5 - t0 + 2*u3*v2 + u2*u2*v1 + 2*t0*v2) // 2,
    )
