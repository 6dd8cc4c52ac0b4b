"""Multiplication polynomials of the free nilpotent group of class 3 and rank 2.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5 = u
    v1, v2, v3, v4, v5 = v
    u2_2 = u2*(u2 - 1)//2
    v1_2 = v1*(v1 - 1)//2
    t0 = u2*v1
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3 + t0,
        u4 + v4 + u2*v1_2 + u3*v1,
        u5 + v5 + u2_2*v1 + u3*v2 + t0*v2,
    )
