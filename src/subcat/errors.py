"""Shared exception types for the subcat package."""

from __future__ import annotations


class SubcatError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SubcatError, ValueError):
    """Mismatched dimensions, ambient spaces, moduli, or algebras."""


class CapExceeded(SubcatError, RuntimeError):
    """A bounded search would exceed its module constant (the README lists each).

    Raised instead of silently truncating a search; `detail` names the
    offending quantity and its value.
    """

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class ParseError(SubcatError, ValueError):
    """A file or descriptor failed to parse; message carries the position."""


class CatalogError(SubcatError, ValueError):
    """A catalog could not be constructed from the given modules."""


class EmptyCatalog(CatalogError):
    """A catalog needs at least one indecomposable module."""


class DuplicateIso(CatalogError):
    """Two supplied catalog entries are isomorphic."""


class Decomposable(CatalogError):
    """A supplied catalog entry has a nontrivial direct-sum splitting."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class UnknownModule(SubcatError, LookupError):
    """A module does not decompose into the catalog's indecomposables.

    Signals an incomplete user-supplied catalog.
    """


class NotTorsionFree(SubcatError, ValueError):
    """The argument was required to be a torsion-free class but is not."""
