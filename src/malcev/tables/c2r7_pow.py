"""Power polynomials of the free nilpotent group of class 2 and rank 7.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11, u12, u13, u14, u15, u16, u17, u18, u19, u20, u21, u22, u23, u24, u25, u26, u27, u28 = u
    b2 = e*(e - 1)//2
    return (
        u1*e,
        u2*e,
        u3*e,
        u4*e,
        u5*e,
        u6*e,
        u7*e,
        u8*e + u1*u2*b2,
        u9*e + u1*u3*b2,
        u10*e + u2*u3*b2,
        u11*e + u1*u4*b2,
        u12*e + u2*u4*b2,
        u13*e + u3*u4*b2,
        u14*e + u1*u5*b2,
        u15*e + u2*u5*b2,
        u16*e + u3*u5*b2,
        u17*e + u4*u5*b2,
        u18*e + u1*u6*b2,
        u19*e + u2*u6*b2,
        u20*e + u3*u6*b2,
        u21*e + u4*u6*b2,
        u22*e + u5*u6*b2,
        u23*e + u1*u7*b2,
        u24*e + u2*u7*b2,
        u25*e + u3*u7*b2,
        u26*e + u4*u7*b2,
        u27*e + u5*u7*b2,
        u28*e + u6*u7*b2,
    )
