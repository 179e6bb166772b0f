"""Exception types shared across the package."""


class LorentzGeoError(Exception):
    """Base class for all package errors."""


class DomainError(LorentzGeoError):
    """A model-space configuration is not realizable (no real solution)."""


class ShapeError(LorentzGeoError):
    """Matrix or grid dimensions are inconsistent."""


class NotChronological(LorentzGeoError):
    """Requested a geodesic between points that are not chronologically related."""


class GeodesicDeficit(LorentzGeoError):
    """An extracted chain does not realize the recorded time separation."""


class MissingChains(LorentzGeoError):
    """A reconstruction needs sampled interior geodesics that were not supplied."""


class RigidityViolated(LorentzGeoError):
    """A claimed flat fill-in fails its tau/causality validation."""

    def __init__(self, message: str, tau_error: float | None = None):
        super().__init__(message)
        self.tau_error = tau_error  # the fill-in's largest tau error
        self.report = None  # quadrangle_rigidity's QuadrangleReport, when it raised this


class OrderViolated(LorentzGeoError):
    """Vertices do not satisfy the required chronological order."""


class WindowExhausted(LorentzGeoError):
    """A search window ended before the question could be decided."""


class NotParallel(LorentzGeoError):
    """Lines fail the weak-parallelism test."""


class StripInconsistent(LorentzGeoError):
    """Strip data is incompatible with a flat planar strip."""


class NotInPast(LorentzGeoError):
    """The base point is not in the chronological past of the target ray."""


class NoSeries(LorentzGeoError):
    """A report contains no plottable series."""
