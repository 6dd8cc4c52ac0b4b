"""Power polynomials of the free nilpotent group of class 4 and rank 2.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    b2 = e*(e - 1)//2
    b3 = b2*(e - 2)//3
    b4 = b3*(e - 3)//4
    p0 = b2 + 2*b3
    p1 = 3*b2 + 4*b3
    p2 = b2 + 6*b3 + 6*b4
    p3 = 3*b2 + 14*b3 + 12*b4
    p4 = 7*b2 + 24*b3 + 18*b4
    t0 = u1*u2
    t1 = u1*u3
    t2 = u1*u1
    t3 = t2*u2
    t4 = u2*u3
    t5 = t0*u2
    return (
        u1*e,
        u2*e,
        u3*e + t0*b2,
        (2*u4*e + (-t0 + 2*t1)*b2 + t3*p0) // 2,
        (2*u5*e + (-t0 + 2*t4)*b2 + t5*p1) // 2,
        (6*u6*e + (2*t0 - 3*t1 + 6*u1*u4)*b2 + (-3*t3 + 3*t2*u3)*p0 + t2*u1*u2*p2) // 6,
        (4*u7*e + (t0 + 4*u1*u5 + 4*u2*u4)*b2 + (-t3 + 4*t0*u3)*p0 - t5*p1 + t3*u2*p3) // 4,
        (6*u8*e + (2*t0 - 3*t4 + 6*u2*u5)*b2 + 3*u2*u2*u3*p0 - 3*t5*p1 + t5*u2*p4) // 6,
    )
