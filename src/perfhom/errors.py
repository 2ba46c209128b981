"""Exception types raised by the perfhom package."""


class PerfhomError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PerfhomError, ValueError):
    """A study config has an unknown key or an unusable value."""


def _config_value(key, value, convert):
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        reason = f" ({exc})" if str(exc) else ""
        raise ConfigError(f"bad value for {key!r}: {value!r}{reason}") from None


class InfeasibleSpacingError(PerfhomError):
    """Requested layout violates the cavity disjointness condition."""


class ManifoldOutsideDomainError(PerfhomError):
    """The interface plane does not cut through the interior of the box."""


class MeshingError(PerfhomError):
    """Triangulation failed or produced an inconsistent boundary."""


class ResolutionTooCoarseError(MeshingError):
    """Mesh size too large to resolve the cavity boundaries."""


class InconsistentMeshError(PerfhomError):
    """Mesh arrays fail a structural sanity check."""


class MissingFacetTagsError(PerfhomError):
    """An operation needs a facet set the mesh does not carry."""


class NonEllipticCoefficientsError(PerfhomError):
    """Sampled principal part violates the declared ellipticity bound."""


class NoConvergenceError(PerfhomError):
    """Iterative linear solver hit its iteration cap."""


class PicardDivergenceError(PerfhomError):
    """The nonlinear fixed-point iteration is diverging."""


class PointOffManifoldError(PerfhomError):
    """Evaluation point does not lie on the interface."""


class NonzeroMeanError(PerfhomError):
    """Cell average inconsistent with the claimed homogenized density."""
