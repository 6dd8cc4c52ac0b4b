"""Generated polynomials, three modules per shipped basis: c<c>r<r> defines
`mult`, c<c>r<r>_inverse defines `inverse` and c<c>r<r>_pow defines `pow`;
see `malcev.deepthought` and `tools/gen_tables.py`."""
