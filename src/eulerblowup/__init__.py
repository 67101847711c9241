"""Simulation and analysis laboratory for blowup of compressible isentropic flow.

Pieces: closed-form and quadrature-based blowup criteria for non-vacuum
bump data (``criteria``), a finite-volume solver with a gradient-blowup
detector (``solver``), weighted-momentum functionals and cone energies
(``functionals``), executable checks tying traces back to the analytical
guarantees (``verify``), frozen scenario presets (``scenarios``) and a
reproducible CLI (``cli``).
"""

__version__ = "0.1.0"

from .model import (
    BumpProfile,
    DetectorParams,
    EosParams,
    Geometry,
    GridSpec,
    Scenario,
    TestingFunction,
    exponential,
    linear,
    make_bump_scenario,
    power_law,
    power_law_B,
    pressure,
    riemann_variable,
    sound_speed,
)
from .quadrature import QuadratureRule, integrate_fn, integrate_samples
from .functionals import (
    FieldSnapshot,
    FunctionalSeries,
    SeriesRecorder,
    cone_energy,
    cone_gradient_constant,
    initial_snapshot,
    mass_functional,
    momentum_functional,
    weight_functional_B,
)
from .criteria import (
    CriterionReport,
    Verdict,
    check_general,
    check_linear_1d,
    check_linear_1d_tau,
    check_power_radial,
    minimal_tau,
    run_family_check,
    theorem_context,
)
from .solver import BlowupEvent, SolutionTrace, SolverConfig, run, step
from .verify import (
    VerificationReport,
    check_characteristic_density,
    check_cone_energy,
    check_differential_inequality,
    check_finite_propagation,
    check_mass_conservation,
    check_positivity,
    validate_blowup_prediction,
)
from .scenarios import (
    CertifiedCase,
    certified_suite,
    constant_scenario,
    reference_scenario,
)

__all__ = [
    "__version__",
    "BumpProfile",
    "DetectorParams",
    "EosParams",
    "Geometry",
    "GridSpec",
    "Scenario",
    "TestingFunction",
    "exponential",
    "linear",
    "make_bump_scenario",
    "power_law",
    "pressure",
    "riemann_variable",
    "sound_speed",
    "QuadratureRule",
    "integrate_fn",
    "integrate_samples",
    "power_law_B",
    "FieldSnapshot",
    "FunctionalSeries",
    "SeriesRecorder",
    "cone_energy",
    "cone_gradient_constant",
    "initial_snapshot",
    "mass_functional",
    "momentum_functional",
    "weight_functional_B",
    "CriterionReport",
    "Verdict",
    "check_general",
    "check_linear_1d",
    "check_linear_1d_tau",
    "check_power_radial",
    "minimal_tau",
    "run_family_check",
    "theorem_context",
    "BlowupEvent",
    "SolutionTrace",
    "SolverConfig",
    "run",
    "step",
    "VerificationReport",
    "check_characteristic_density",
    "check_cone_energy",
    "check_differential_inequality",
    "check_finite_propagation",
    "check_mass_conservation",
    "check_positivity",
    "validate_blowup_prediction",
    "CertifiedCase",
    "certified_suite",
    "constant_scenario",
    "reference_scenario",
]
