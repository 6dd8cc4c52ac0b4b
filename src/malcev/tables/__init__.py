"""Generated polynomials, two modules per basis of
`malcev.freegroup.SHIPPED_RANKS`: c<c>r<r> defines `mult` and c<c>r<r>_pow
defines `pow`, whose value at e = -1 is the inverse.  `tools/gen_tables.py`
writes them; the library derives nothing at runtime."""
