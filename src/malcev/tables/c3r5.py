"""Multiplication polynomials of the free nilpotent group of class 3 and rank 5.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15, u16, u17, u18, u19, u20, u21, u22, u23, u24, u25, u26, u27, u28, u29, u30, u31, u32, u33, u34, u35, u36, u37, u38, u39, u40, u41, u42, u43, u44, u45, u46, u47, u48, u49, u50, u51, u52, u53, u54, u55 = u
    v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15, v16, v17, v18, v19, v20, v21, v22, v23, v24, v25, v26, v27, v28, v29, v30, v31, v32, v33, v34, v35, v36, v37, v38, v39, v40, v41, v42, v43, v44, v45, v46, v47, v48, v49, v50, v51, v52, v53, v54, v55 = v
    t0 = u2*v1
    t1 = u3*v1
    t2 = u3*v2
    t3 = u4*v1
    t4 = u4*v2
    t5 = u4*v3
    t6 = u5*v1
    t7 = u5*v2
    t8 = u5*v3
    t9 = u5*v4
    t10 = u8*v1
    t11 = u10*v1
    t12 = u13*v1
    t13 = u3*u3
    t14 = u11*v1
    t15 = u3*u4
    t16 = u14*v1
    t17 = u3*u5
    t18 = u11*v2
    t19 = u14*v2
    t20 = u4*u4
    t21 = u15*v1
    t22 = u4*u5
    t23 = u15*v2
    t24 = u15*v3
    t25 = u5*u5
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3,
        u4 + v4,
        u5 + v5,
        u6 + v6 + t0,
        u7 + v7 + t1,
        u8 + v8 + t2,
        u9 + v9 + t3,
        u10 + v10 + t4,
        u11 + v11 + t5,
        u12 + v12 + t6,
        u13 + v13 + t7,
        u14 + v14 + t8,
        u15 + v15 + t9,
        (2*u16 + 2*v16 - t0 + 2*u6*v1 + t0*v1) // 2,
        (2*u17 + 2*v17 - t0 + 2*u6*v2 + u2*u2*v1 + 2*t0*v2) // 2,
        u18 + v18 + u6*v3 - t10 + u2*u3*v1 + t0*v3,
        u19 + v19 + u6*v4 - t11 + u2*u4*v1 + t0*v4,
        u20 + v20 + u6*v5 - t12 + u2*u5*v1 + t0*v5,
        (2*u21 + 2*v21 - t1 + 2*u7*v1 + t1*v1) // 2,
        u22 + v22 + u7*v2 + t10 + t1*v2,
        (2*u23 + 2*v23 - t1 + 2*u7*v3 + t13*v1 + 2*t1*v3) // 2,
        u24 + v24 + u7*v4 - t14 + t15*v1 + t1*v4,
        u25 + v25 + u7*v5 - t16 + t17*v1 + t1*v5,
        (2*u26 + 2*v26 - t2 + 2*u8*v2 + t2*v2) // 2,
        (2*u27 + 2*v27 - t2 + 2*u8*v3 + t13*v2 + 2*t2*v3) // 2,
        u28 + v28 + u8*v4 - t18 + t15*v2 + t2*v4,
        u29 + v29 + u8*v5 - t19 + t17*v2 + t2*v5,
        (2*u30 + 2*v30 - t3 + 2*u9*v1 + t3*v1) // 2,
        u31 + v31 + u9*v2 + t11 + t3*v2,
        u32 + v32 + u9*v3 + t14 + t3*v3,
        (2*u33 + 2*v33 - t3 + 2*u9*v4 + t20*v1 + 2*t3*v4) // 2,
        u34 + v34 + u9*v5 - t21 + t22*v1 + t3*v5,
        (2*u35 + 2*v35 - t4 + 2*u10*v2 + t4*v2) // 2,
        u36 + v36 + u10*v3 + t18 + t4*v3,
        (2*u37 + 2*v37 - t4 + 2*u10*v4 + t20*v2 + 2*t4*v4) // 2,
        u38 + v38 + u10*v5 - t23 + t22*v2 + t4*v5,
        (2*u39 + 2*v39 - t5 + 2*u11*v3 + t5*v3) // 2,
        (2*u40 + 2*v40 - t5 + 2*u11*v4 + t20*v3 + 2*t5*v4) // 2,
        u41 + v41 + u11*v5 - t24 + t22*v3 + t5*v5,
        (2*u42 + 2*v42 - t6 + 2*u12*v1 + t6*v1) // 2,
        u43 + v43 + u12*v2 + t12 + t6*v2,
        u44 + v44 + u12*v3 + t16 + t6*v3,
        u45 + v45 + u12*v4 + t21 + t6*v4,
        (2*u46 + 2*v46 - t6 + 2*u12*v5 + t25*v1 + 2*t6*v5) // 2,
        (2*u47 + 2*v47 - t7 + 2*u13*v2 + t7*v2) // 2,
        u48 + v48 + u13*v3 + t19 + t7*v3,
        u49 + v49 + u13*v4 + t23 + t7*v4,
        (2*u50 + 2*v50 - t7 + 2*u13*v5 + t25*v2 + 2*t7*v5) // 2,
        (2*u51 + 2*v51 - t8 + 2*u14*v3 + t8*v3) // 2,
        u52 + v52 + u14*v4 + t24 + t8*v4,
        (2*u53 + 2*v53 - t8 + 2*u14*v5 + t25*v3 + 2*t8*v5) // 2,
        (2*u54 + 2*v54 - t9 + 2*u15*v4 + t9*v4) // 2,
        (2*u55 + 2*v55 - t9 + 2*u15*v5 + t25*v4 + 2*t9*v5) // 2,
    )
