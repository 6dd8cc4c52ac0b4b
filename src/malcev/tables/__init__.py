"""Generated polynomials, two modules per shipped basis: c<c>r<r> defines
`mult` and c<c>r<r>_inverse defines `inverse`; see `malcev.deepthought` and
`tools/gen_tables.py`."""
