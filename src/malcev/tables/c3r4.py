"""Multiplication polynomials of the free nilpotent group of class 3 and rank 4.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15, u16, u17, u18, u19, u20, u21, u22, u23, u24, u25, u26, u27, u28, u29, u30 = u
    v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15, v16, v17, v18, v19, v20, v21, v22, v23, v24, v25, v26, v27, v28, v29, v30 = v
    u2_2 = u2*(u2 - 1)//2
    u3_2 = u3*(u3 - 1)//2
    u4_2 = u4*(u4 - 1)//2
    v1_2 = v1*(v1 - 1)//2
    v2_2 = v2*(v2 - 1)//2
    v3_2 = v3*(v3 - 1)//2
    t0 = u2*v1
    t1 = u3*v1
    t2 = u3*v2
    t3 = u4*v1
    t4 = u4*v2
    t5 = u4*v3
    t6 = u7*v1
    t7 = u9*v1
    t8 = u10*v1
    t9 = u3*u4
    t10 = u10*v2
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3,
        u4 + v4,
        u5 + v5 + t0,
        u6 + v6 + t1,
        u7 + v7 + t2,
        u8 + v8 + t3,
        u9 + v9 + t4,
        u10 + v10 + t5,
        u11 + v11 + u2*v1_2 + u5*v1,
        u12 + v12 + u2_2*v1 + u5*v2 + t0*v2,
        u13 + v13 + u5*v3 - t6 + u2*u3*v1 + t0*v3,
        u14 + v14 + u5*v4 - t7 + u2*u4*v1 + t0*v4,
        u15 + v15 + u3*v1_2 + u6*v1,
        u16 + v16 + u6*v2 + t6 + t1*v2,
        u17 + v17 + u3_2*v1 + u6*v3 + t1*v3,
        u18 + v18 + u6*v4 - t8 + t9*v1 + t1*v4,
        u19 + v19 + u3*v2_2 + u7*v2,
        u20 + v20 + u3_2*v2 + u7*v3 + t2*v3,
        u21 + v21 + u7*v4 - t10 + t9*v2 + t2*v4,
        u22 + v22 + u4*v1_2 + u8*v1,
        u23 + v23 + u8*v2 + t7 + t3*v2,
        u24 + v24 + u8*v3 + t8 + t3*v3,
        u25 + v25 + u4_2*v1 + u8*v4 + t3*v4,
        u26 + v26 + u4*v2_2 + u9*v2,
        u27 + v27 + u9*v3 + t10 + t4*v3,
        u28 + v28 + u4_2*v2 + u9*v4 + t4*v4,
        u29 + v29 + u4*v3_2 + u10*v3,
        u30 + v30 + u4_2*v3 + u10*v4 + t5*v4,
    )
