"""Exact census of finite-index modular subgroup classes and the lifts
realized by elliptically fibered K3 surfaces.

Everything is computed from permutation pairs -- no floats, no randomness
in the results (random input only appears in the self-check word tests).

The package imports none of its modules, so a CLI process loads only what
its command runs.  Import names from the modules that define them:
dessins and their walks from modk3.hypermap, the search from
modk3.generate, records, reports and the catalog read from modk3.catalog,
the error types from modk3.errors.
"""

__version__ = "0.1.0"
