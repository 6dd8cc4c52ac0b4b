"""Multiplication polynomials of the free nilpotent group of class 3 and rank 4.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15, u16, u17, u18, u19, u20, u21, u22, u23, u24, u25, u26, u27, u28, u29, u30 = u
    v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15, v16, v17, v18, v19, v20, v21, v22, v23, v24, v25, v26, v27, v28, v29, v30 = v
    t0 = u2*v1
    t1 = u3*v1
    t2 = u3*v2
    t3 = u4*v1
    t4 = u4*v2
    t5 = u4*v3
    t6 = u7*v1
    t7 = u9*v1
    t8 = u3*u3
    t9 = u10*v1
    t10 = u3*u4
    t11 = u10*v2
    t12 = u4*u4
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
        (2*u11 + 2*v11 - t0 + 2*u5*v1 + t0*v1) // 2,
        (2*u12 + 2*v12 - t0 + 2*u5*v2 + u2*u2*v1 + 2*t0*v2) // 2,
        u13 + v13 + u5*v3 - t6 + u2*u3*v1 + t0*v3,
        u14 + v14 + u5*v4 - t7 + u2*u4*v1 + t0*v4,
        (2*u15 + 2*v15 - t1 + 2*u6*v1 + t1*v1) // 2,
        u16 + v16 + u6*v2 + t6 + t1*v2,
        (2*u17 + 2*v17 - t1 + 2*u6*v3 + t8*v1 + 2*t1*v3) // 2,
        u18 + v18 + u6*v4 - t9 + t10*v1 + t1*v4,
        (2*u19 + 2*v19 - t2 + 2*u7*v2 + t2*v2) // 2,
        (2*u20 + 2*v20 - t2 + 2*u7*v3 + t8*v2 + 2*t2*v3) // 2,
        u21 + v21 + u7*v4 - t11 + t10*v2 + t2*v4,
        (2*u22 + 2*v22 - t3 + 2*u8*v1 + t3*v1) // 2,
        u23 + v23 + u8*v2 + t7 + t3*v2,
        u24 + v24 + u8*v3 + t9 + t3*v3,
        (2*u25 + 2*v25 - t3 + 2*u8*v4 + t12*v1 + 2*t3*v4) // 2,
        (2*u26 + 2*v26 - t4 + 2*u9*v2 + t4*v2) // 2,
        u27 + v27 + u9*v3 + t11 + t4*v3,
        (2*u28 + 2*v28 - t4 + 2*u9*v4 + t12*v2 + 2*t4*v4) // 2,
        (2*u29 + 2*v29 - t5 + 2*u10*v3 + t5*v3) // 2,
        (2*u30 + 2*v30 - t5 + 2*u10*v4 + t12*v3 + 2*t5*v4) // 2,
    )
