"""Generated polynomials, two modules per basis of
`malcev.freegroup.SHIPPED_RANKS` of top weight >= 2: c<c>r<r> defines `mult`
and c<c>r<r>_pow defines `pow`, whose value at e = -1 is the inverse.  A
basis of top weight 1 has none: the library adds and scales its coordinates
itself.  `tools/gen_tables.py` writes them; the library derives nothing at
runtime.

The package exists for tools and tests, which import its modules.  The
library does not import it: `freegroup._polynomials` loads each table from
its file and registers it in `sys.modules` under the name an import would
give it, but sets no attribute of this package.  So reach a table with
`from malcev.tables import c2r2` or `importlib.import_module`, which return
the module the library loaded, not as `malcev.tables.c2r2`."""
