"""Generated polynomials, two modules per shipped basis: c<c>r<r> defines
`mult` and c<c>r<r>_pow defines `pow`, whose value at e = -1 is the
inverse; see `malcev.deepthought` and `tools/gen_tables.py`."""
