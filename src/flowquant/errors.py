"""Exception types shared across the package."""


class FlowQuantError(Exception):
    """Base class for all errors raised by flowquant."""


class InvalidParameter(FlowQuantError, ValueError):
    """A grid, constant or packet parameter is outside its valid range."""


class GridMismatch(FlowQuantError):
    """Two wave functions live on different grids (raised by inner_product)."""


class RepMismatch(FlowQuantError):
    """Operation applied to a wave function in the wrong representation."""


class GridTooSmall(FlowQuantError):
    """Packet does not decay inside the grid box."""


class NonPositiveWidth(FlowQuantError):
    """A packet width parameter must be strictly positive."""


class LowMomentumMass(FlowQuantError):
    """Too much probability mass near p = 0 for the energy change of variables."""


class OutOfDomain(FlowQuantError):
    """Initial point lies outside the vector field's domain."""


class ZeroFieldValue(FlowQuantError):
    """The field vanishes inside a range where 1/X must be integrated."""


class NotComplete(FlowQuantError):
    """Transport requested for a field whose flow is not complete."""


class NotPluggable(FlowQuantError):
    """Plugged transport is only implemented for the quadratic field."""


class RoughInput(FlowQuantError):
    """Wave function is not smooth on the grid scale (spectral tail too large)."""


class InconclusiveClassification(FlowQuantError):
    """The travel time to an orbit end neither settles nor diverges.

    Carries the end and its last tail segments as diagnostics, so the caller
    can inspect them instead of trusting a guessed verdict.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class QuadratureNonConvergence(FlowQuantError):
    """The oscillatory quadrature did not reach the requested tolerance."""


class NegativeMomentumLeak(FlowQuantError):
    """A nominally positive-momentum packet carries too much p < 0 mass."""


class ZeroWeightComponent(FlowQuantError):
    """Moments requested for a mover component with (near) zero weight."""


class IntervalOutOfRange(FlowQuantError):
    """Probability requested over an interval outside the tabulated grid."""


class ScenarioError(FlowQuantError):
    """Scenario configuration file is invalid."""
