"""Multiplication polynomials of the free nilpotent group of class 2 and rank 8.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15, u16, u17, u18, u19, u20, u21, u22, u23, u24, u25, u26, u27, u28, u29, u30, u31, u32, u33, u34, u35, u36 = u
    v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15, v16, v17, v18, v19, v20, v21, v22, v23, v24, v25, v26, v27, v28, v29, v30, v31, v32, v33, v34, v35, v36 = v
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3,
        u4 + v4,
        u5 + v5,
        u6 + v6,
        u7 + v7,
        u8 + v8,
        u9 + v9 + u2*v1,
        u10 + v10 + u3*v1,
        u11 + v11 + u3*v2,
        u12 + v12 + u4*v1,
        u13 + v13 + u4*v2,
        u14 + v14 + u4*v3,
        u15 + v15 + u5*v1,
        u16 + v16 + u5*v2,
        u17 + v17 + u5*v3,
        u18 + v18 + u5*v4,
        u19 + v19 + u6*v1,
        u20 + v20 + u6*v2,
        u21 + v21 + u6*v3,
        u22 + v22 + u6*v4,
        u23 + v23 + u6*v5,
        u24 + v24 + u7*v1,
        u25 + v25 + u7*v2,
        u26 + v26 + u7*v3,
        u27 + v27 + u7*v4,
        u28 + v28 + u7*v5,
        u29 + v29 + u7*v6,
        u30 + v30 + u8*v1,
        u31 + v31 + u8*v2,
        u32 + v32 + u8*v3,
        u33 + v33 + u8*v4,
        u34 + v34 + u8*v5,
        u35 + v35 + u8*v6,
        u36 + v36 + u8*v7,
    )
