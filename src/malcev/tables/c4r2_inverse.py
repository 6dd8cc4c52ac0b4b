"""Inverse polynomials of the free nilpotent group of class 4 and rank 2.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def inverse(u):
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    return (
        -u1,
        -u2,
        -u3 + u1*u2,
        (-2*u4 - u1*u2 + 2*u1*u3 - u1**2*u2) // 2,
        (-2*u5 - u1*u2 + 2*u2*u3 - u1*u2**2) // 2,
        (-6*u6 + 2*u1*u2 - 3*u1*u3 + 6*u1*u4 + 3*u1**2*u2 - 3*u1**2*u3 + u1**3*u2) // 6,
        (-4*u7 + u1*u2 + 4*u1*u5 + 4*u2*u4 + u1**2*u2 + u1*u2**2 - 4*u1*u2*u3 + u1**2*u2**2) // 4,
        (-6*u8 + 2*u1*u2 - 3*u2*u3 + 6*u2*u5 + 3*u1*u2**2 - 3*u2**2*u3 + u1*u2**3) // 6,
    )
