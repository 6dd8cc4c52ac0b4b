"""Power polynomials of the free nilpotent group of class 3 and rank 3.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14 = u
    t0 = u1*u2
    t1 = u1*u3
    t2 = u2*u3
    t3 = u1*u4
    t4 = u1*u1
    t5 = t4*u2
    t6 = u2*u4
    t7 = t0*u2
    t8 = u1*u6
    t9 = u3*u4
    t10 = t0*u3
    t11 = u1*u5
    t12 = t4*u3
    t13 = u2*u5
    t14 = u3*u5
    t15 = t1*u3
    t16 = u2*u6
    t17 = u2*u2*u3
    t18 = u3*u6
    t19 = t2*u3
    return (
        u1*e,
        u2*e,
        u3*e,
        (t0*e + 2*u4 - t0)*e // 2,
        (t1*e + 2*u5 - t1)*e // 2,
        (t2*e + 2*u6 - t2)*e // 2,
        ((2*t5*e - 3*t0 + 6*t3 - 3*t5)*e + 12*u7 + 3*t0 - 6*t3 + t5)*e // 12,
        ((4*t7*e - 3*t0 + 6*t6 - 3*t7)*e + 12*u8 + 3*t0 - 6*t6 - t7)*e // 12,
        ((2*t10*e - 3*t8 + 3*t9)*e + 6*u9 + 3*t8 - 3*t9 - 2*t10)*e // 6,
        ((2*t12*e - 3*t1 + 6*t11 - 3*t12)*e + 12*u10 + 3*t1 - 6*t11 + t12)*e // 12,
        ((2*t10*e + 3*t8 + 3*t13 - 3*t10)*e + 6*u11 - 3*t8 - 3*t13 + t10)*e // 6,
        ((4*t15*e - 3*t1 + 6*t14 - 3*t15)*e + 12*u12 + 3*t1 - 6*t14 - t15)*e // 12,
        ((2*t17*e - 3*t2 + 6*t16 - 3*t17)*e + 12*u13 + 3*t2 - 6*t16 + t17)*e // 12,
        ((4*t19*e - 3*t2 + 6*t18 - 3*t19)*e + 12*u14 + 3*t2 - 6*t18 - t19)*e // 12,
    )
