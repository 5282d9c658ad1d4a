"""Exact F2 computational engine for Floer-type filtered complexes.

Subpackages: F2 linear algebra on int rows, graded rings and Leibniz
derivations, T-periodic Floer complexes with quantum products, the
multiplicative spectral sequence of the T-power filtration, theorem-level
drivers, and a numerical Maslov index for loops of Lagrangian subspaces.
"""

__version__ = "0.1.0"
