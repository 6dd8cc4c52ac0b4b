"""Inverse polynomials of the free nilpotent group of class 2 and rank 2.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def inverse(u):
    u1, u2, u3 = u
    return (
        -u1,
        -u2,
        -u3 + u1*u2,
    )
