"""Power polynomials of the free nilpotent group of class 3 and rank 2.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5 = u
    b2 = e*(e - 1)//2
    b3 = b2*(e - 2)//3
    p0 = b2 + 2*b3
    p1 = 3*b2 + 4*b3
    t0 = u1*u2
    return (
        u1*e,
        u2*e,
        u3*e + t0*b2,
        (2*u4*e + (-t0 + 2*u1*u3)*b2 + u1*u1*u2*p0) // 2,
        (2*u5*e + (-t0 + 2*u2*u3)*b2 + t0*u2*p1) // 2,
    )
