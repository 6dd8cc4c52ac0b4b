"""Power polynomials of the free nilpotent group of class 3 and rank 3.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14 = u
    b2 = e*(e - 1)//2
    b3 = b2*(e - 2)//3
    t0 = u1*u2
    t1 = u1*u3
    t2 = u2*u3
    t3 = u1*u1
    t4 = t3*u2
    t5 = t0*u2
    t6 = u1*u6
    t7 = t0*u3
    t8 = t3*u3
    t9 = t1*u3
    t10 = u2*u2*u3
    t11 = t2*u3
    return (
        u1*e,
        u2*e,
        u3*e,
        u4*e + t0*b2,
        u5*e + t1*b2,
        u6*e + t2*b2,
        (2*u7*e + (-t0 + 2*u1*u4 + t4)*b2 + 2*t4*b3) // 2,
        (2*u8*e + (-t0 + 2*u2*u4 + 3*t5)*b2 + 4*t5*b3) // 2,
        u9*e + (-t6 + u3*u4 + 2*t7)*b2 + 2*t7*b3,
        (2*u10*e + (-t1 + 2*u1*u5 + t8)*b2 + 2*t8*b3) // 2,
        u11*e + (t6 + u2*u5 + t7)*b2 + 2*t7*b3,
        (2*u12*e + (-t1 + 2*u3*u5 + 3*t9)*b2 + 4*t9*b3) // 2,
        (2*u13*e + (-t2 + 2*u2*u6 + t10)*b2 + 2*t10*b3) // 2,
        (2*u14*e + (-t2 + 2*u3*u6 + 3*t11)*b2 + 4*t11*b3) // 2,
    )
