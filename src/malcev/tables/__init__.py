"""Generated multiplication polynomials, one module c<c>r<r> per shipped
basis; see `malcev.deepthought` and `tools/gen_tables.py`."""
