"""Power polynomials of the free nilpotent group of class 4 and rank 2.

Generated by tools/gen_tables.py from malcev.deepthought; do not edit.
"""


def pow(u, e):
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    t0 = u1*u2
    t1 = u1*u3
    t2 = u1*u1
    t3 = t2*u2
    t4 = u2*u3
    t5 = t0*u2
    t6 = u1*u4
    t7 = t2*u3
    t8 = t2*u1*u2
    t9 = u1*u5
    t10 = u2*u4
    t11 = t0*u3
    t12 = t3*u2
    t13 = u2*u5
    t14 = u2*u2*u3
    t15 = t5*u2
    return (
        u1*e,
        u2*e,
        (t0*e + 2*u3 - t0)*e // 2,
        ((2*t3*e - 3*t0 + 6*t1 - 3*t3)*e + 12*u4 + 3*t0 - 6*t1 + t3)*e // 12,
        ((4*t5*e - 3*t0 + 6*t4 - 3*t5)*e + 12*u5 + 3*t0 - 6*t4 - t5)*e // 12,
        (((t8*e - 4*t3 + 4*t7 - 2*t8)*e + 4*t0 - 6*t1 + 12*t6 + 6*t3 - 6*t7 + t8)*e + 24*u6 - 4*t0 + 6*t1 - 12*t6 - 2*t3 + 2*t7)*e // 24,
        (((3*t12*e - 2*t3 - 4*t5 + 8*t11 - 4*t12)*e + 3*t0 + 12*t9 + 12*t10 + 3*t3 + 3*t5 - 12*t11)*e + 24*u7 - 3*t0 - 12*t9 - 12*t10 - t3 + t5 + 4*t11 + t12)*e // 24,
        (((3*t15*e - 8*t5 + 4*t14 - 2*t15)*e + 4*t0 - 6*t4 + 12*t13 + 6*t5 - 6*t14 - t15)*e + 24*u8 - 4*t0 + 6*t4 - 12*t13 + 2*t5 + 2*t14)*e // 24,
    )
