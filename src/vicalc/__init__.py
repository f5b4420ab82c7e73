"""Exact Grassmannian invariants from root-of-unity subset sums.

Entry points live in the submodules: vicalc.engine for queries and the
sum itself, vicalc.fusion for the combinatorial cross-check,
vicalc.parabolic for weighted degrees, and vicalc.cli for the command
line.  vicalc.backend holds the subset-sum kernel, evaluated modulo Phi_n(w).
"""

__version__ = "0.1.0"
