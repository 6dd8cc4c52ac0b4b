"""Power polynomials of the free nilpotent group of class 3 and rank 4.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15, u16, u17, u18, u19, u20, u21, u22, u23, u24, u25, u26, u27, u28, u29, u30 = u
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
    t6 = u1*u1
    t7 = u1*u7
    t8 = t0*u3
    t9 = u1*u9
    t10 = t0*u4
    t11 = u1*u10
    t12 = t1*u4
    t13 = u2*u2
    t14 = u2*u10
    t15 = t2*u4
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
        (2*u11*e + (-t0 + 2*u1*u5)*b2 + t6*u2*p1) // 2,
        (2*u12*e + (-t0 + 2*u2*u5)*b2 + t0*u2*p2) // 2,
        u13*e + (-t7 + u3*u5)*b2 + 2*t8*p0,
        u14*e + (-t9 + u4*u5)*b2 + 2*t10*p0,
        (2*u15*e + (-t1 + 2*u1*u6)*b2 + t6*u3*p1) // 2,
        u16*e + (t7 + u2*u6)*b2 + t8*p1,
        (2*u17*e + (-t1 + 2*u3*u6)*b2 + t1*u3*p2) // 2,
        u18*e + (-t11 + u4*u6)*b2 + 2*t12*p0,
        (2*u19*e + (-t2 + 2*u2*u7)*b2 + t13*u3*p1) // 2,
        (2*u20*e + (-t2 + 2*u3*u7)*b2 + t2*u3*p2) // 2,
        u21*e + (-t14 + u4*u7)*b2 + 2*t15*p0,
        (2*u22*e + (-t3 + 2*u1*u8)*b2 + t6*u4*p1) // 2,
        u23*e + (t9 + u2*u8)*b2 + t10*p1,
        u24*e + (t11 + u3*u8)*b2 + t12*p1,
        (2*u25*e + (-t3 + 2*u4*u8)*b2 + t3*u4*p2) // 2,
        (2*u26*e + (-t4 + 2*u2*u9)*b2 + t13*u4*p1) // 2,
        u27*e + (t14 + u3*u9)*b2 + t15*p1,
        (2*u28*e + (-t4 + 2*u4*u9)*b2 + t4*u4*p2) // 2,
        (2*u29*e + (-t5 + 2*u3*u10)*b2 + u3*u3*u4*p1) // 2,
        (2*u30*e + (-t5 + 2*u4*u10)*b2 + t5*u4*p2) // 2,
    )
