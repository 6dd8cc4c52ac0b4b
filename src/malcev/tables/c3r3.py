"""Multiplication polynomials of the free nilpotent group of class 3 and rank 3.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14 = u
    v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 = v
    u2_2 = u2*(u2 - 1)//2
    u3_2 = u3*(u3 - 1)//2
    v1_2 = v1*(v1 - 1)//2
    v2_2 = v2*(v2 - 1)//2
    t0 = u2*v1
    t1 = u3*v1
    t2 = u3*v2
    t3 = u6*v1
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3,
        u4 + v4 + t0,
        u5 + v5 + t1,
        u6 + v6 + t2,
        u7 + v7 + u2*v1_2 + u4*v1,
        u8 + v8 + u2_2*v1 + u4*v2 + t0*v2,
        u9 + v9 + u4*v3 - t3 + u2*u3*v1 + t0*v3,
        u10 + v10 + u3*v1_2 + u5*v1,
        u11 + v11 + u5*v2 + t3 + t1*v2,
        u12 + v12 + u3_2*v1 + u5*v3 + t1*v3,
        u13 + v13 + u3*v2_2 + u6*v2,
        u14 + v14 + u3_2*v2 + u6*v3 + t2*v3,
    )
