"""Power polynomials of the free nilpotent group of class 1 and rank 2.

Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.
"""


def pow(u, e):
    u1, u2 = u
    return (
        u1*e,
        u2*e,
    )
