"""Constacyclic codes as ideals of twisted group algebras over GF(p^m).

Layers, bottom up:

- :mod:`twistcodes.gf`       exact GF(p^m) arithmetic, norm-map cosets
- :mod:`twistcodes.poly`     GF(q)[x], factorization of x^n - lambda, primitive idempotents
- :mod:`twistcodes.talg`     the twisted group algebra F_q^gamma C_n
- :mod:`twistcodes.codes`    linear/constacyclic codes, duals, LCD, min distance
- :mod:`twistcodes.discover` ideal-lattice enumeration, LCD search, best-known tables
- :mod:`twistcodes.cli`      command-line interface
"""

__version__ = "0.1.0"
