"""Power polynomials of the free nilpotent group of class 2 and rank 5.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15 = u
    b2 = e*(e - 1)//2
    return (
        u1*e,
        u2*e,
        u3*e,
        u4*e,
        u5*e,
        u6*e + u1*u2*b2,
        u7*e + u1*u3*b2,
        u8*e + u2*u3*b2,
        u9*e + u1*u4*b2,
        u10*e + u2*u4*b2,
        u11*e + u3*u4*b2,
        u12*e + u1*u5*b2,
        u13*e + u2*u5*b2,
        u14*e + u3*u5*b2,
        u15*e + u4*u5*b2,
    )
