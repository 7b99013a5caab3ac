"""Flow-based quantization of observables linear in momentum, and the
oriented arrival-time distribution of a free quantum particle.

The package is organized around four layers:

* :mod:`flowquant.grids` — uniform 1-D grids, wave functions, packets,
  norms and the probability current;
* :mod:`flowquant.transforms` — unitary changes of representation
  (position/momentum Fourier pair, free evolution, the oriented-energy map
  and the arrival-time spectral transform);
* :mod:`flowquant.flows` — transport flows of vector fields, completeness
  classification (the self-adjointness criterion), half-density transport,
  the Lie-derivative generator and the phase-ambiguous plugged transport;
* :mod:`flowquant.arrival` / :mod:`flowquant.classical` — the arrival-time
  distribution with its mover decomposition, and the classical arrival
  times and phase-space ensembles used to cross-check it.

Everything is 1-D and deterministic; stochastic helpers take explicit seeds.

Importing the package loads none of these modules.  Each name in
``__all__`` is imported from its module on first access (PEP 562), so
``flowquant.X`` and ``from flowquant import X`` load only what X needs, and
each ``flowquant`` CLI subcommand loads only the modules it runs.
"""

__version__ = "0.1.0"

#: Each exported name, grouped by the module that defines it.
_EXPORTS = {name: module for module, names in {
    "arrival": (
        "ArrivalDistribution", "ArrivalMoments", "BackflowSpec",
        "Component", "arrival_amplitude_fast",
        "arrival_amplitude_quadrature", "arrival_distribution",
        "arrival_moments", "default_time_grid", "make_backflow_packet",
        "probability_in_interval", "split_movers"),
    "classical": (
        "ArrivalStats", "Histogram", "Marginals", "PhaseSpaceEnsemble",
        "classical_arrival_oracle", "classical_arrival_time",
        "ensemble_from_packet", "ensemble_momentum_limits",
        "evolve_ensemble", "exact_momentum_histogram",
        "gaussian_ensemble", "l1_distance", "marginals",
        "momentum_from_position_limit", "momentum_histogram",
        "oriented_arrival_time", "quantum_momentum_limit"),
    "errors": (
        "BinRangeTooSmall", "FlowQuantError", "GridMismatch",
        "GridTooSmall", "InconclusiveClassification",
        "IntervalOutOfRange", "InvalidParameter", "LowMomentumMass",
        "MomentumFloorViolated", "NegativeMomentumLeak",
        "NonPositiveWidth", "NotComplete", "NotPluggable",
        "OutOfDomain", "QuadratureNonConvergence", "RepMismatch",
        "RoughInput", "ScenarioError", "ZeroFieldValue",
        "ZeroWeightComponent"),
    "flows": (
        "EscapeSample", "FlowClass", "FlowResult", "FlowVerdict",
        "ProbeSpec", "VectorField1D", "apply_generator",
        "arrival_field", "classify_flow", "constant_field",
        "cubic_field", "integrate_flow", "lie_derivative",
        "linear_field", "oriented_arrival_field", "pluggable_transport",
        "quadratic_field", "straighten", "straightened_oriented_field",
        "transport"),
    "grids": (
        "Grid1D", "PhysicalParams", "Representation", "WaveFunction",
        "gaussian_packet", "inner_product", "moments", "norm_squared",
        "packet_fits_box", "probability_current", "spectral_derivative"),
    "transforms": (
        "TransformReport", "default_momentum_floor",
        "default_oriented_grid", "evolve_free", "fourier_eval",
        "free_current", "from_oriented_energy", "low_momentum_mass",
        "to_arrival_time", "to_momentum", "to_oriented_energy",
        "to_position"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """An exported name, imported from its module on first access and then
    kept in the package namespace, so later lookups do not come here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
