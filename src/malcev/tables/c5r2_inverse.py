"""Inverse polynomials of the free nilpotent group of class 5 and rank 2.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def inverse(u):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14 = u
    t0 = u1*u2
    t1 = u1*u3
    t2 = u1*u1
    t3 = t2*u2
    t4 = u2*u3
    t5 = t0*u2
    t6 = u1*u4
    t7 = t2*u3
    t8 = t2*u1
    t9 = t8*u2
    t10 = u1*u5
    t11 = u2*u4
    t12 = t0*u3
    t13 = t3*u2
    t14 = u2*u5
    t15 = u2*u2
    t16 = t15*u3
    t17 = t5*u2
    t18 = u1*u7
    t19 = t2*u5
    t20 = t0*u4
    t21 = t3*u3
    t22 = t9*u2
    t23 = u1*u8
    t24 = t0*u5
    t25 = t5*u3
    t26 = t13*u2
    return (
        -u1,
        -u2,
        -u3 + t0,
        (-2*u4 - t0 + 2*t1 - t3) // 2,
        (-2*u5 - t0 + 2*t4 - t5) // 2,
        (-6*u6 + 2*t0 - 3*t1 + 6*t6 + 3*t3 - 3*t7 + t9) // 6,
        (-4*u7 + t0 + 4*t10 + 4*t11 + t3 + t5 - 4*t12 + t13) // 4,
        (-6*u8 + 2*t0 - 3*t4 + 6*t14 + 3*t5 - 3*t16 + t17) // 6,
        (-12*u9 + 4*t0 - 6*t1 + 6*t10 + 12*t18 + 12*u3*u4 + 3*t3 - 6*t19 - 12*t20 - 6*t1*u3 - t9 - 3*t13 + 12*t21 - 3*t22) // 12,
        (-12*u10 + 3*t0 + 12*t10 + 12*t23 - 6*t4 + 12*u3*u5 + t3 + 3*t5 - 12*t24 - 6*t4*u3 - 3*t13 + 12*t25 - 4*t26) // 12,
        (-24*u11 - 6*t0 + 8*t1 - 12*t6 + 24*u1*u6 - 11*t3 + 12*t7 - 12*t2*u4 - 6*t9 + 4*t8*u3 - t8*u1*u2) // 24,
        (-12*u12 - 2*t0 - 6*t10 + 12*t18 + 12*u2*u6 - 3*t3 - 6*t19 - 2*t5 + 6*t12 - 12*t20 - t9 - 3*t13 + 6*t21 - t22) // 12,
        (-12*u13 - 2*t0 + 12*t23 - 6*t11 + 12*u2*u7 - 2*t3 - 3*t5 + 6*t12 - 12*t24 - 6*t15*u4 - 3*t13 - t17 + 6*t25 - t26) // 12,
        (-24*u14 - 6*t0 + 8*t4 - 12*t14 + 24*u2*u8 - 11*t5 + 12*t16 - 12*t15*u5 - 6*t17 + 4*t15*u2*u3 - t17*u2) // 24,
    )
