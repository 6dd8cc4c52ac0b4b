"""Power polynomials of the free nilpotent group of class 1 and rank 9.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8, u9 = u
    return (
        u1*e,
        u2*e,
        u3*e,
        u4*e,
        u5*e,
        u6*e,
        u7*e,
        u8*e,
        u9*e,
    )
