"""Multiplication polynomials of the free nilpotent group of class 4 and rank 2.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    v1, v2, v3, v4, v5, v6, v7, v8 = v
    u2_2 = u2*(u2 - 1)//2
    u2_3 = u2_2*(u2 - 2)//3
    v1_2 = v1*(v1 - 1)//2
    v1_3 = v1_2*(v1 - 2)//3
    v2_2 = v2*(v2 - 1)//2
    t0 = u2*v1
    t1 = u2*v1_2
    t2 = u3*v1
    t3 = u2_2*v1
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3 + t0,
        u4 + v4 + t1 + t2,
        u5 + v5 + t3 + u3*v2 + t0*v2,
        u6 + v6 + u2*v1_3 + u3*v1_2 + u4*v1,
        u7 + v7 + u2_2*v1_2 + u4*v2 + u5*v1 + t1*v2 + t2*v2,
        u8 + v8 + u2_3*v1 + u3*v2_2 + u5*v2 + t0*v2_2 + t3*v2,
    )
