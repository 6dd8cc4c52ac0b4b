"""Inverse polynomials of the free nilpotent group of class 2 and rank 3.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def inverse(u):
    u1, u2, u3, u4, u5, u6 = u
    return (
        -u1,
        -u2,
        -u3,
        -u4 + u1*u2,
        -u5 + u1*u3,
        -u6 + u2*u3,
    )
