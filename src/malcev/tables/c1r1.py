"""Multiplication polynomials of the free nilpotent group of class 1 and rank 1.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, = u
    v1, = v
    return (
        u1 + v1,
    )
