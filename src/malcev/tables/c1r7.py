"""Multiplication polynomials of the free nilpotent group of class 1 and rank 7.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7 = u
    v1, v2, v3, v4, v5, v6, v7 = v
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3,
        u4 + v4,
        u5 + v5,
        u6 + v6,
        u7 + v7,
    )
