"""Multiplication polynomials of the free nilpotent group of class 3 and rank 5.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15, u16, u17, u18, u19, u20, u21, u22, u23, u24, u25, u26, u27, u28, u29, u30, u31, u32, u33, u34, u35, u36, u37, u38, u39, u40, u41, u42, u43, u44, u45, u46, u47, u48, u49, u50, u51, u52, u53, u54, u55 = u
    v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15, v16, v17, v18, v19, v20, v21, v22, v23, v24, v25, v26, v27, v28, v29, v30, v31, v32, v33, v34, v35, v36, v37, v38, v39, v40, v41, v42, v43, v44, v45, v46, v47, v48, v49, v50, v51, v52, v53, v54, v55 = v
    u2_2 = u2*(u2 - 1)//2
    u3_2 = u3*(u3 - 1)//2
    u4_2 = u4*(u4 - 1)//2
    u5_2 = u5*(u5 - 1)//2
    v1_2 = v1*(v1 - 1)//2
    v2_2 = v2*(v2 - 1)//2
    v3_2 = v3*(v3 - 1)//2
    v4_2 = v4*(v4 - 1)//2
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
    t13 = u11*v1
    t14 = u3*u4
    t15 = u14*v1
    t16 = u3*u5
    t17 = u11*v2
    t18 = u14*v2
    t19 = u15*v1
    t20 = u4*u5
    t21 = u15*v2
    t22 = u15*v3
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
        u16 + v16 + u2*v1_2 + u6*v1,
        u17 + v17 + u2_2*v1 + u6*v2 + t0*v2,
        u18 + v18 + u6*v3 - t10 + u2*u3*v1 + t0*v3,
        u19 + v19 + u6*v4 - t11 + u2*u4*v1 + t0*v4,
        u20 + v20 + u6*v5 - t12 + u2*u5*v1 + t0*v5,
        u21 + v21 + u3*v1_2 + u7*v1,
        u22 + v22 + u7*v2 + t10 + t1*v2,
        u23 + v23 + u3_2*v1 + u7*v3 + t1*v3,
        u24 + v24 + u7*v4 - t13 + t14*v1 + t1*v4,
        u25 + v25 + u7*v5 - t15 + t16*v1 + t1*v5,
        u26 + v26 + u3*v2_2 + u8*v2,
        u27 + v27 + u3_2*v2 + u8*v3 + t2*v3,
        u28 + v28 + u8*v4 - t17 + t14*v2 + t2*v4,
        u29 + v29 + u8*v5 - t18 + t16*v2 + t2*v5,
        u30 + v30 + u4*v1_2 + u9*v1,
        u31 + v31 + u9*v2 + t11 + t3*v2,
        u32 + v32 + u9*v3 + t13 + t3*v3,
        u33 + v33 + u4_2*v1 + u9*v4 + t3*v4,
        u34 + v34 + u9*v5 - t19 + t20*v1 + t3*v5,
        u35 + v35 + u4*v2_2 + u10*v2,
        u36 + v36 + u10*v3 + t17 + t4*v3,
        u37 + v37 + u4_2*v2 + u10*v4 + t4*v4,
        u38 + v38 + u10*v5 - t21 + t20*v2 + t4*v5,
        u39 + v39 + u4*v3_2 + u11*v3,
        u40 + v40 + u4_2*v3 + u11*v4 + t5*v4,
        u41 + v41 + u11*v5 - t22 + t20*v3 + t5*v5,
        u42 + v42 + u5*v1_2 + u12*v1,
        u43 + v43 + u12*v2 + t12 + t6*v2,
        u44 + v44 + u12*v3 + t15 + t6*v3,
        u45 + v45 + u12*v4 + t19 + t6*v4,
        u46 + v46 + u5_2*v1 + u12*v5 + t6*v5,
        u47 + v47 + u5*v2_2 + u13*v2,
        u48 + v48 + u13*v3 + t18 + t7*v3,
        u49 + v49 + u13*v4 + t21 + t7*v4,
        u50 + v50 + u5_2*v2 + u13*v5 + t7*v5,
        u51 + v51 + u5*v3_2 + u14*v3,
        u52 + v52 + u14*v4 + t22 + t8*v4,
        u53 + v53 + u5_2*v3 + u14*v5 + t8*v5,
        u54 + v54 + u5*v4_2 + u15*v4,
        u55 + v55 + u5_2*v4 + u15*v5 + t9*v5,
    )
