"""Numerical mechanics on double Lie groups with cocycle-extended symplectic
structure, Dirac-restricted fibers, and their sigma-model Lagrangians."""

from .algebra import (BasisAlgebra, TwoCocycle, get_algebra, is_character,
                      load_algebra, validate_manin)

__all__ = ["BasisAlgebra", "TwoCocycle", "get_algebra", "is_character",
           "load_algebra", "validate_manin"]

__version__ = "0.1.0"
