"""specalc: exact calculator for the arithmetic product of combinatorial species.

Submodules:

- ``numkit``  exact integers/rationals, partitions, divisor functions
- ``series``  truncated power series, Dirichlet coefficients, shifted basis
- ``zindex``  cycle-index polynomials and their products
- ``species`` expression trees, evaluators, counting theorems
- ``oracle``  brute-force set-level enumeration and Fix counts
- ``dslcli``  expression parser and the ``specalc`` command line

Importing the package loads none of them, so ``python -m specalc.dslcli``
runs the command line module once, as ``__main__``.
"""

__all__ = ["dslcli", "errors", "numkit", "oracle", "series", "species", "zindex"]
__version__ = "0.1.0"
