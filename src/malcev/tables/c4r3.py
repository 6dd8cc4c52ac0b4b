"""Multiplication polynomials of the free nilpotent group of class 4 and rank 3.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15, u16, u17, u18, u19, u20, u21, u22, u23, u24, u25, u26, u27, u28, u29, u30, u31, u32 = u
    v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15, v16, v17, v18, v19, v20, v21, v22, v23, v24, v25, v26, v27, v28, v29, v30, v31, v32 = v
    u2_2 = u2*(u2 - 1)//2
    u2_3 = u2_2*(u2 - 2)//3
    u3_2 = u3*(u3 - 1)//2
    u3_3 = u3_2*(u3 - 2)//3
    v1_2 = v1*(v1 - 1)//2
    v1_3 = v1_2*(v1 - 2)//3
    v2_2 = v2*(v2 - 1)//2
    v2_3 = v2_2*(v2 - 2)//3
    v3_2 = v3*(v3 - 1)//2
    t0 = u2*v1
    t1 = u3*v1
    t2 = u3*v2
    t3 = u2*v1_2
    t4 = u4*v1
    t5 = u2_2*v1
    t6 = u4*v2
    t7 = t0*v2
    t8 = u6*v1
    t9 = u2*u3
    t10 = t9*v1
    t11 = u3*v1_2
    t12 = u5*v1
    t13 = u5*v2
    t14 = t1*v2
    t15 = u3_2*v1
    t16 = u3*v2_2
    t17 = u6*v2
    t18 = u3_2*v2
    t19 = u6*v1_2
    t20 = u9*v1
    t21 = u11*v1
    t22 = u3*u4
    t23 = u9*v2
    t24 = u13*v1
    t25 = t8*v2
    t26 = u12*v2
    t27 = u14*v1
    t28 = t15*v2
    t29 = t8*v3
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3,
        u4 + v4 + t0,
        u5 + v5 + t1,
        u6 + v6 + t2,
        u7 + v7 + t3 + t4,
        u8 + v8 + t5 + t6 + t7,
        u9 + v9 + u4*v3 - t8 + t10 + t0*v3,
        u10 + v10 + t11 + t12,
        u11 + v11 + t13 + t8 + t14,
        u12 + v12 + t15 + u5*v3 + t1*v3,
        u13 + v13 + t16 + t17,
        u14 + v14 + t18 + u6*v3 + t2*v3,
        u15 + v15 + u5*v4 + t8 + 2*t19 - t20 + t21 + t22*v1 + t1*v4,
        u16 + v16 + t8 + u6*v4 - t23 + 2*t24 + t22*v2 + t2*v4 + t25,
        u17 + v17 + t8 + u6*v5 - t26 + t27 + u3*u5*v2 + t14 + t2*v5 + t28,
        u18 + v18 + u2*v1_3 + u4*v1_2 + u7*v1,
        u19 + v19 + u2_2*v1_2 + u7*v2 + u8*v1 + t3*v2 + t4*v2,
        u20 + v20 - t19 + u7*v3 + t20 + t9*v1_2 + t3*v3 + t4*v3,
        u21 + v21 + u2_3*v1 + u4*v2_2 + u8*v2 + t0*v2_2 + t5*v2,
        u22 + v22 + u8*v3 + t23 - t24 + u2_2*u3*v1 + t5*v3 + t6*v3 - t25 + t10*v2 + t7*v3,
        u23 + v23 + u4*v3_2 + u9*v3 - t27 + u2*u3_2*v1 + t0*v3_2 - t29 + t10*v3,
        u24 + v24 + u3*v1_3 + u5*v1_2 + u10*v1,
        u25 + v25 + t19 + u10*v2 + t21 + t11*v2 + t12*v2,
        u26 + v26 + u3_2*v1_2 + u10*v3 + u12*v1 + t11*v3 + t12*v3,
        u27 + v27 + u5*v2_2 + u11*v2 + t24 + t1*v2_2 + t25,
        u28 + v28 + u11*v3 + t26 + t27 + t28 + t13*v3 + t29 + t14*v3,
        u29 + v29 + u3_3*v1 + u5*v3_2 + u12*v3 + t1*v3_2 + t15*v3,
        u30 + v30 + u3*v2_3 + u6*v2_2 + u13*v2,
        u31 + v31 + u3_2*v2_2 + u13*v3 + u14*v2 + t16*v3 + t17*v3,
        u32 + v32 + u3_3*v2 + u6*v3_2 + u14*v3 + t2*v3_2 + t18*v3,
    )
