"""Multiplication polynomials of the free nilpotent group of class 4 and rank 2.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def mult(u, v):
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    v1, v2, v3, v4, v5, v6, v7, v8 = v
    return (
        u1 + v1,
        u2 + v2,
        u3 + v3 + u2*v1,
        (2*u4 + 2*v4 - u2*v1 + 2*u3*v1 + u2*v1**2) // 2,
        (2*u5 + 2*v5 - u2*v1 + 2*u3*v2 + u2**2*v1 + 2*u2*v1*v2) // 2,
        (6*u6 + 6*v6 + 2*u2*v1 - 3*u3*v1 + 6*u4*v1 - 3*u2*v1**2 + 3*u3*v1**2 + u2*v1**3) // 6,
        (4*u7 + 4*v7 + u2*v1 + 4*u4*v2 + 4*u5*v1 - u2**2*v1 - u2*v1**2 - 2*u2*v1*v2 + 4*u3*v1*v2 + u2**2*v1**2 + 2*u2*v1**2*v2) // 4,
        (6*u8 + 6*v8 + 2*u2*v1 - 3*u3*v2 + 6*u5*v2 - 3*u2**2*v1 - 6*u2*v1*v2 + 3*u3*v2**2 + u2**3*v1 + 3*u2**2*v1*v2 + 3*u2*v1*v2**2) // 6,
    )
