"""Multiplication polynomials of the free nilpotent group of class 5 and rank 2.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14 = u
    v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 = v
    u2_2 = u2*(u2 - 1)//2
    u2_3 = u2_2*(u2 - 2)//3
    u2_4 = u2_3*(u2 - 3)//4
    u3_2 = u3*(u3 - 1)//2
    v1_2 = v1*(v1 - 1)//2
    v1_3 = v1_2*(v1 - 2)//3
    v1_4 = v1_3*(v1 - 3)//4
    v2_2 = v2*(v2 - 1)//2
    v2_3 = v2_2*(v2 - 2)//3
    t0 = u2*v1
    t1 = u2*v1_2
    t2 = u3*v1
    t3 = u2_2*v1
    t4 = u3*v2
    t5 = t0*v2
    t6 = u2*v1_3
    t7 = u3*v1_2
    t8 = u4*v1
    t9 = u2_2*v1_2
    t10 = u5*v1
    t11 = t1*v2
    t12 = u2_3*v1
    t13 = t3*v2
    t14 = u2_2*v1_3
    t15 = u5*v1_2
    t16 = u7*v1
    t17 = u2*u3
    t18 = u2_3*v1_2
    t19 = u8*v1
    t20 = t9*v2
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3 + t0,
        u4 + v4 + t1 + t2,
        u5 + v5 + t3 + t4 + t5,
        u6 + v6 + t6 + t7 + t8,
        u7 + v7 + t9 + u4*v2 + t10 + t11 + t2*v2,
        u8 + v8 + t12 + u3*v2_2 + u5*v2 + t0*v2_2 + t13,
        u9 + v9 + t6 + 2*t9 + 3*t14 + u3_2*v1 + u4*v3 + t10 + t15 + t16 + t17*v1_2 + t1*v3 + t2*v3,
        u10 + v10 + t3 + 3*t9 + 2*t12 + 4*t18 + u3_2*v2 + t10 + u5*v3 + t19 + t11 + u2_2*u3*v1 + t13 + t3*v3 + 2*t20 + t4*v3 + t17*v1*v2 + t5*v3,
        u11 + v11 + u2*v1_4 + u3*v1_3 + u4*v1_2 + u6*v1,
        u12 + v12 + t14 + t15 + u6*v2 + t16 + t6*v2 + t7*v2 + t8*v2,
        u13 + v13 + t18 + u4*v2_2 + u7*v2 + t19 + t1*v2_2 + t20 + t2*v2_2 + t10*v2,
        u14 + v14 + u2_4*v1 + u3*v2_3 + u5*v2_2 + u8*v2 + t0*v2_3 + t3*v2_2 + t12*v2,
    )
