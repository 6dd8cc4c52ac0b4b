"""Power polynomials of the free nilpotent group of class 4 and rank 2.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    b2 = e*(e - 1)//2
    b3 = b2*(e - 2)//3
    b4 = b3*(e - 3)//4
    t0 = u1*u2
    t1 = u1*u3
    t2 = u1*u1
    t3 = t2*u2
    t4 = u2*u3
    t5 = t0*u2
    t6 = t2*u3
    t7 = t2*u1*u2
    t8 = t0*u3
    t9 = t3*u2
    t10 = u2*u2*u3
    t11 = t5*u2
    return (
        u1*e,
        u2*e,
        u3*e + t0*b2,
        (2*u4*e + (-t0 + 2*t1 + t3)*b2 + 2*t3*b3) // 2,
        (2*u5*e + (-t0 + 2*t4 + 3*t5)*b2 + 4*t5*b3) // 2,
        (6*u6*e + (2*t0 - 3*t1 + 6*u1*u4 - 3*t3 + 3*t6 + t7)*b2 + (-6*t3 + 6*t6 + 6*t7)*b3 + 6*t7*b4) // 6,
        (4*u7*e + (t0 + 4*u1*u5 + 4*u2*u4 - t3 - 3*t5 + 4*t8 + 3*t9)*b2 + (-2*t3 - 4*t5 + 8*t8 + 14*t9)*b3 + 12*t9*b4) // 4,
        (6*u8*e + (2*t0 - 3*t4 + 6*u2*u5 - 9*t5 + 3*t10 + 7*t11)*b2 + (-12*t5 + 6*t10 + 24*t11)*b3 + 18*t11*b4) // 6,
    )
