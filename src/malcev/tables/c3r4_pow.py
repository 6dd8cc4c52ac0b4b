"""Power polynomials of the free nilpotent group of class 3 and rank 4.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15, u16, u17, u18, u19, u20, u21, u22, u23, u24, u25, u26, u27, u28, u29, u30 = u
    b2 = e*(e - 1)//2
    b3 = b2*(e - 2)//3
    t0 = u1*u2
    t1 = u1*u3
    t2 = u2*u3
    t3 = u1*u4
    t4 = u2*u4
    t5 = u3*u4
    t6 = u1*u1
    t7 = t6*u2
    t8 = t0*u2
    t9 = u1*u7
    t10 = t0*u3
    t11 = u1*u9
    t12 = t0*u4
    t13 = t6*u3
    t14 = t1*u3
    t15 = u1*u10
    t16 = t1*u4
    t17 = u2*u2
    t18 = t17*u3
    t19 = t2*u3
    t20 = u2*u10
    t21 = t2*u4
    t22 = t6*u4
    t23 = t3*u4
    t24 = t17*u4
    t25 = t4*u4
    t26 = u3*u3*u4
    t27 = t5*u4
    return (
        u1*e,
        u2*e,
        u3*e,
        u4*e,
        u5*e + t0*b2,
        u6*e + t1*b2,
        u7*e + t2*b2,
        u8*e + t3*b2,
        u9*e + t4*b2,
        u10*e + t5*b2,
        (2*u11*e + (-t0 + 2*u1*u5 + t7)*b2 + 2*t7*b3) // 2,
        (2*u12*e + (-t0 + 2*u2*u5 + 3*t8)*b2 + 4*t8*b3) // 2,
        u13*e + (-t9 + u3*u5 + 2*t10)*b2 + 2*t10*b3,
        u14*e + (-t11 + u4*u5 + 2*t12)*b2 + 2*t12*b3,
        (2*u15*e + (-t1 + 2*u1*u6 + t13)*b2 + 2*t13*b3) // 2,
        u16*e + (t9 + u2*u6 + t10)*b2 + 2*t10*b3,
        (2*u17*e + (-t1 + 2*u3*u6 + 3*t14)*b2 + 4*t14*b3) // 2,
        u18*e + (-t15 + u4*u6 + 2*t16)*b2 + 2*t16*b3,
        (2*u19*e + (-t2 + 2*u2*u7 + t18)*b2 + 2*t18*b3) // 2,
        (2*u20*e + (-t2 + 2*u3*u7 + 3*t19)*b2 + 4*t19*b3) // 2,
        u21*e + (-t20 + u4*u7 + 2*t21)*b2 + 2*t21*b3,
        (2*u22*e + (-t3 + 2*u1*u8 + t22)*b2 + 2*t22*b3) // 2,
        u23*e + (t11 + u2*u8 + t12)*b2 + 2*t12*b3,
        u24*e + (t15 + u3*u8 + t16)*b2 + 2*t16*b3,
        (2*u25*e + (-t3 + 2*u4*u8 + 3*t23)*b2 + 4*t23*b3) // 2,
        (2*u26*e + (-t4 + 2*u2*u9 + t24)*b2 + 2*t24*b3) // 2,
        u27*e + (t20 + u3*u9 + t21)*b2 + 2*t21*b3,
        (2*u28*e + (-t4 + 2*u4*u9 + 3*t25)*b2 + 4*t25*b3) // 2,
        (2*u29*e + (-t5 + 2*u3*u10 + t26)*b2 + 2*t26*b3) // 2,
        (2*u30*e + (-t5 + 2*u4*u10 + 3*t27)*b2 + 4*t27*b3) // 2,
    )
