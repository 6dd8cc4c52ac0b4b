"""Power polynomials of the free nilpotent group of class 3 and rank 5.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15, u16, u17, u18, u19, u20, u21, u22, u23, u24, u25, u26, u27, u28, u29, u30, u31, u32, u33, u34, u35, u36, u37, u38, u39, u40, u41, u42, u43, u44, u45, u46, u47, u48, u49, u50, u51, u52, u53, u54, u55 = u
    b2 = e*(e - 1)//2
    b3 = b2*(e - 2)//3
    p0 = b2 + b3
    p1 = b2 + 2*b3
    p2 = 3*b2 + 4*b3
    t0 = u1*u2
    t1 = u1*u3
    t2 = u2*u3
    t3 = u1*u4
    t4 = u2*u4
    t5 = u3*u4
    t6 = u1*u5
    t7 = u2*u5
    t8 = u3*u5
    t9 = u4*u5
    t10 = u1*u1
    t11 = u1*u8
    t12 = t0*u3
    t13 = u1*u10
    t14 = t0*u4
    t15 = u1*u13
    t16 = t0*u5
    t17 = u1*u11
    t18 = t1*u4
    t19 = u1*u14
    t20 = t1*u5
    t21 = u2*u2
    t22 = u2*u11
    t23 = t2*u4
    t24 = u2*u14
    t25 = t2*u5
    t26 = u1*u15
    t27 = t3*u5
    t28 = u2*u15
    t29 = t4*u5
    t30 = u3*u3
    t31 = u3*u15
    t32 = t5*u5
    return (
        u1*e,
        u2*e,
        u3*e,
        u4*e,
        u5*e,
        u6*e + t0*b2,
        u7*e + t1*b2,
        u8*e + t2*b2,
        u9*e + t3*b2,
        u10*e + t4*b2,
        u11*e + t5*b2,
        u12*e + t6*b2,
        u13*e + t7*b2,
        u14*e + t8*b2,
        u15*e + t9*b2,
        (2*u16*e + (-t0 + 2*u1*u6)*b2 + t10*u2*p1) // 2,
        (2*u17*e + (-t0 + 2*u2*u6)*b2 + t0*u2*p2) // 2,
        u18*e + (-t11 + u3*u6)*b2 + 2*t12*p0,
        u19*e + (-t13 + u4*u6)*b2 + 2*t14*p0,
        u20*e + (-t15 + u5*u6)*b2 + 2*t16*p0,
        (2*u21*e + (-t1 + 2*u1*u7)*b2 + t10*u3*p1) // 2,
        u22*e + (t11 + u2*u7)*b2 + t12*p1,
        (2*u23*e + (-t1 + 2*u3*u7)*b2 + t1*u3*p2) // 2,
        u24*e + (-t17 + u4*u7)*b2 + 2*t18*p0,
        u25*e + (-t19 + u5*u7)*b2 + 2*t20*p0,
        (2*u26*e + (-t2 + 2*u2*u8)*b2 + t21*u3*p1) // 2,
        (2*u27*e + (-t2 + 2*u3*u8)*b2 + t2*u3*p2) // 2,
        u28*e + (-t22 + u4*u8)*b2 + 2*t23*p0,
        u29*e + (-t24 + u5*u8)*b2 + 2*t25*p0,
        (2*u30*e + (-t3 + 2*u1*u9)*b2 + t10*u4*p1) // 2,
        u31*e + (t13 + u2*u9)*b2 + t14*p1,
        u32*e + (t17 + u3*u9)*b2 + t18*p1,
        (2*u33*e + (-t3 + 2*u4*u9)*b2 + t3*u4*p2) // 2,
        u34*e + (-t26 + u5*u9)*b2 + 2*t27*p0,
        (2*u35*e + (-t4 + 2*u2*u10)*b2 + t21*u4*p1) // 2,
        u36*e + (t22 + u3*u10)*b2 + t23*p1,
        (2*u37*e + (-t4 + 2*u4*u10)*b2 + t4*u4*p2) // 2,
        u38*e + (-t28 + u5*u10)*b2 + 2*t29*p0,
        (2*u39*e + (-t5 + 2*u3*u11)*b2 + t30*u4*p1) // 2,
        (2*u40*e + (-t5 + 2*u4*u11)*b2 + t5*u4*p2) // 2,
        u41*e + (-t31 + u5*u11)*b2 + 2*t32*p0,
        (2*u42*e + (-t6 + 2*u1*u12)*b2 + t10*u5*p1) // 2,
        u43*e + (t15 + u2*u12)*b2 + t16*p1,
        u44*e + (t19 + u3*u12)*b2 + t20*p1,
        u45*e + (t26 + u4*u12)*b2 + t27*p1,
        (2*u46*e + (-t6 + 2*u5*u12)*b2 + t6*u5*p2) // 2,
        (2*u47*e + (-t7 + 2*u2*u13)*b2 + t21*u5*p1) // 2,
        u48*e + (t24 + u3*u13)*b2 + t25*p1,
        u49*e + (t28 + u4*u13)*b2 + t29*p1,
        (2*u50*e + (-t7 + 2*u5*u13)*b2 + t7*u5*p2) // 2,
        (2*u51*e + (-t8 + 2*u3*u14)*b2 + t30*u5*p1) // 2,
        u52*e + (t31 + u4*u14)*b2 + t32*p1,
        (2*u53*e + (-t8 + 2*u5*u14)*b2 + t8*u5*p2) // 2,
        (2*u54*e + (-t9 + 2*u4*u15)*b2 + u4*u4*u5*p1) // 2,
        (2*u55*e + (-t9 + 2*u5*u15)*b2 + t9*u5*p2) // 2,
    )
