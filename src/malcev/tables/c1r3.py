"""Multiplication polynomials of the free nilpotent group of class 1 and rank 3.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3 = u
    v1, v2, v3 = v
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3,
    )
