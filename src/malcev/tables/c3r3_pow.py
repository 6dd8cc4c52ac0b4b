"""Power polynomials of the free nilpotent group of class 3 and rank 3.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14 = u
    b2 = e*(e - 1)//2
    b3 = b2*(e - 2)//3
    p0 = b2 + b3
    p1 = b2 + 2*b3
    p2 = 3*b2 + 4*b3
    t0 = u1*u2
    t1 = u1*u3
    t2 = u2*u3
    t3 = u1*u1
    t4 = u1*u6
    t5 = t0*u3
    return (
        u1*e,
        u2*e,
        u3*e,
        u4*e + t0*b2,
        u5*e + t1*b2,
        u6*e + t2*b2,
        (2*u7*e + (-t0 + 2*u1*u4)*b2 + t3*u2*p1) // 2,
        (2*u8*e + (-t0 + 2*u2*u4)*b2 + t0*u2*p2) // 2,
        u9*e + (-t4 + u3*u4)*b2 + 2*t5*p0,
        (2*u10*e + (-t1 + 2*u1*u5)*b2 + t3*u3*p1) // 2,
        u11*e + (t4 + u2*u5)*b2 + t5*p1,
        (2*u12*e + (-t1 + 2*u3*u5)*b2 + t1*u3*p2) // 2,
        (2*u13*e + (-t2 + 2*u2*u6)*b2 + u2*u2*u3*p1) // 2,
        (2*u14*e + (-t2 + 2*u3*u6)*b2 + t2*u3*p2) // 2,
    )
