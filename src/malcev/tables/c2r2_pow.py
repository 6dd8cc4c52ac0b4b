"""Power polynomials of the free nilpotent group of class 2 and rank 2.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2, u3 = u
    b2 = e*(e - 1)//2
    return (
        u1*e,
        u2*e,
        u3*e + u1*u2*b2,
    )
