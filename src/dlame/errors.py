"""Exception hierarchy shared by all dlame modules."""

import numpy as np


class DLameError(Exception):
    """Base class for all library errors.

    A domain gate of a batched kernel sets `row` on the error it raises: the
    flat (C-order) index, over the leading batch axes, of the first entry that
    failed any of the kernel's gates.  The error is the one a single-entry call
    on that entry would raise.  `row` is None on errors not raised by a gate.
    """

    row: int | None = None


def raise_first(checks) -> None:
    """Raise the error of the first batch entry that fails one of `checks`.

    checks is a sequence of (mask, make_error) pairs in the order one entry is
    tested; each mask is a boolean array over the batch axes and make_error
    maps the flat row index to the exception to raise.
    """
    bad = np.asarray(checks[0][0])
    for mask, _ in checks[1:]:
        bad = bad | mask
    if not bad.any():
        return
    row = int(np.argmax(np.ravel(bad)))
    for mask, make_error in checks:
        if np.ravel(mask)[row]:
            err = make_error(row)
            err.row = row
            raise err


class ConfigError(DLameError):
    """A run configuration failed validation."""


# -- algebra layer ----------------------------------------------------------

class NullVector(DLameError):
    """Attempt to invert a vector on (or numerically too close to) the light cone."""


class NonVectorResult(DLameError):
    """An adjoint action produced significant non-grade-1 mass; the frame is corrupted."""


class AtInfinity(DLameError):
    """Projection demanded at a point with vanishing normalization component."""


class DegenerateBasis(DLameError):
    """Frame construction failed: the supplied/completed basis is singular or mis-oriented."""


# -- lattice layer ----------------------------------------------------------

class OutOfBounds(DLameError):
    """Shift or difference requested outside the lattice box."""


class OrderTooLarge(DLameError):
    """A C^ell norm of order ell does not fit on the box."""


class SystemStructureError(DLameError):
    """A step rule reads a component whose evolution directions are incompatible."""


class DomainViolation(DLameError):
    """A step rule left its domain during a Goursat solve.

    Carries the lattice site (physical coordinates), the step direction and the
    underlying cause so a failed solve can be located.
    """

    def __init__(self, site, direction, cause):
        self.site = tuple(site)
        self.direction = direction
        self.cause = cause
        super().__init__(f"step in direction {direction} failed at site {self.site}: {cause}")


# -- conjugate nets ---------------------------------------------------------

class DegenerateHexahedron(DLameError):
    """The implicit cube closure is singular (planes do not meet in one point)."""


class NonPlanarQuad(DLameError):
    """Rotation-coefficient extraction was asked on a quadrilateral that is not planar."""


class DegenerateEdges(DLameError):
    """Quadrilateral edges are (numerically) collinear; coefficients are not determined."""


# -- orthogonal systems -----------------------------------------------------

class SqrtDomain(DLameError):
    """A square root argument (N_i^2 or n^2) left the positive domain; mesh too coarse."""


class OutsideDomain(DLameError):
    """Ribaucour data left the admissible set (transform direction too steep)."""


class DegenerateCircle(DLameError):
    """An elementary circle degenerated to a line; excluded from the model."""


class ImmersionFailure(DLameError):
    """Curve speed dropped below tolerance while reading off coefficients."""


class FrameDrift(DLameError):
    """Orthonormality of the transported frame degraded beyond tolerance."""


# -- analysis / oracles -----------------------------------------------------

class SingularPoint(DLameError):
    """Oracle evaluated at a singular point of the coordinate system."""


class DegenerateFit(DLameError):
    """Rate fit impossible: fewer than three usable points or non-positive errors."""


class CoincidentPoints(DLameError):
    """Circularity test needs pairwise distinct points."""


# -- exports ----------------------------------------------------------------

class NonPlanarExport(DLameError):
    """SVG output requested for data that is not two-dimensional."""
