"""Inverse polynomials of the free nilpotent group of class 3 and rank 2.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def inverse(u):
    u1, u2, u3, u4, u5 = u
    t0 = u1*u2
    return (
        -u1,
        -u2,
        -u3 + t0,
        (-2*u4 - t0 + 2*u1*u3 - u1*u1*u2) // 2,
        (-2*u5 - t0 + 2*u2*u3 - t0*u2) // 2,
    )
