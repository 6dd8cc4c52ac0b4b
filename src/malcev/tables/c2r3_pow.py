"""Power polynomials of the free nilpotent group of class 2 and rank 3.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6 = u
    b2 = e*(e - 1)//2
    return (
        u1*e,
        u2*e,
        u3*e,
        u4*e + u1*u2*b2,
        u5*e + u1*u3*b2,
        u6*e + u2*u3*b2,
    )
