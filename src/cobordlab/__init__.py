"""Exact mod-p cobordism invariants of products of projective spaces and
Milnor hypersurfaces, with the fixed-locus dimension bound machinery:
generator expressions, dim_q, lower bounds, explicit diagonalizable group
actions achieving them, and an equivariant localization checker.

Everything is exact arithmetic over F_p; no floats, no external deps.  The
package exports the names of the README's Library section; the bounds, the
localization checker and the rest are in the submodules.
"""

from .actions import CharacterGroup, realize
from .chow import chern_numbers
from .cobordism import (
    GeneratorFamily,
    NotInLp,
    dim_q_direct,
    dim_q_via_generators,
    express_in_generators,
    perturbed_family,
    standard_generators,
)
from .fpring import BPoly, GenPoly

__version__ = "0.1.0"

__all__ = [
    "BPoly",
    "CharacterGroup",
    "GenPoly",
    "GeneratorFamily",
    "NotInLp",
    "chern_numbers",
    "dim_q_direct",
    "dim_q_via_generators",
    "express_in_generators",
    "perturbed_family",
    "realize",
    "standard_generators",
]
