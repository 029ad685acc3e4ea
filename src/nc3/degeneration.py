"""Collective normal classes and the triple point formula.

For each double surface D of a normal crossing threefold the class

    N(D) = (self-class from one side) + (self-class from the other side)
         + (class of the triple curve on D)

is the obstruction for the configuration to sit as the central fiber of a
semistable family: if such a family exists, every N(D) is trivial.  The
triple (N(D1), N(D2), N(D3)) is the collective normal class, and its
vanishing is the triple point formula.

This module decides d-semistability purely by that vanishing.  (Triviality
of the collective normal class is sufficient for d-semistability whenever
the double surfaces and the triple curve are connected, and that is the only
regime this package models; the vanishing is also necessary, so the check
is reported as an equivalence.)  Linear equivalence is decided as coordinate
equality in the tracked sublattice.
"""

from __future__ import annotations

from ._record import Record
from .exactlat import Vec, vec_add
from .ncconfig import NCConfiguration


class NormalClassTriple(Record):
    """One divisor class per double surface, in that surface's lattice."""

    classes: tuple[Vec, Vec, Vec]

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.classes))

    def as_lists(self) -> list[list[int]]:
        return [list(c) for c in self.classes]


def collective_normal_class(config: NCConfiguration) -> NormalClassTriple:
    """Per surface: first self-class + second self-class + triple curve.

    Computed on each call; ``config.normal_class`` keeps the result of the
    first one.
    """
    classes = []
    for surf in config.surfaces:
        n = vec_add(vec_add(surf.boundary_self[0], surf.boundary_self[1]), surf.tau_class)
        classes.append(n)
    return NormalClassTriple(classes=(classes[0], classes[1], classes[2]))


def is_d_semistable(config: NCConfiguration) -> tuple[bool, NormalClassTriple]:
    """Triple point formula: semistable iff the collective class vanishes.

    Always returns the residual triple for diagnostics.
    """
    residual = config.normal_class
    return residual.is_zero, residual
