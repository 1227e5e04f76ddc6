"""Desk-scale exact laboratory for demand-based equilibrium stock prices.

Everything lives on a full binary lattice carrying a discrete Brownian
filtration, where conditional expectations, martingale representation and
stochastic integrals are exact.  On top of it sit an explicit equilibrium
pricer, two solvers for the associated coupled quadratic backward system,
exact stopping-time norms, and a verification suite that turns the model's
structural inequalities into executable checks.
"""

from .lattice import (
    AdaptedProcess,
    ExponentialGuardError,
    Lattice,
    LatticeSizeError,
    PredictableProcess,
    build_lattice,
    conditional_expectation,
    martingale_defect,
    node_max,
    process_gap,
    stochastic_exponential,
    stochastic_integral,
)
from .scenario import (
    ConstantDemand,
    Digital,
    Instance,
    LinearClipped,
    LocalizedDemand,
    LocalizedDividend,
    MarketConfig,
    NegativeSignOfB,
    PiecewiseConstantDemand,
    SignOfBT,
    StoppingTime,
    TableDemand,
    TableDividend,
    evaluate_demand,
    evaluate_dividend,
    evaluate_market,
    hitting_time_tau,
    sign_plus,
)
from .pricer import (
    EquilibriumSolution,
    NumericalError,
    localize,
    price_equilibrium,
)
from .bsde import (
    BsdeSolution,
    ContractionReport,
    IterationDiagnostics,
    contraction_report,
    driver_growth_bound,
    picard_diagnostics,
    solve_explicit,
)
from .norms import (
    NormReport,
    bmo_norm,
    bmo_norm_rv,
    h_bmo_norm,
    h_norm,
    measure_kappa,
    orlicz_h,
    sup_norm,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedProcess",
    "BsdeSolution",
    "ConstantDemand",
    "ContractionReport",
    "Digital",
    "EquilibriumSolution",
    "ExponentialGuardError",
    "Instance",
    "IterationDiagnostics",
    "Lattice",
    "LatticeSizeError",
    "LinearClipped",
    "LocalizedDemand",
    "LocalizedDividend",
    "MarketConfig",
    "NegativeSignOfB",
    "NormReport",
    "NumericalError",
    "PiecewiseConstantDemand",
    "PredictableProcess",
    "SignOfBT",
    "StoppingTime",
    "TableDemand",
    "TableDividend",
    "bmo_norm",
    "bmo_norm_rv",
    "build_lattice",
    "conditional_expectation",
    "contraction_report",
    "driver_growth_bound",
    "evaluate_demand",
    "evaluate_dividend",
    "evaluate_market",
    "h_bmo_norm",
    "h_norm",
    "hitting_time_tau",
    "localize",
    "martingale_defect",
    "measure_kappa",
    "node_max",
    "orlicz_h",
    "picard_diagnostics",
    "price_equilibrium",
    "process_gap",
    "sign_plus",
    "solve_explicit",
    "stochastic_exponential",
    "stochastic_integral",
    "sup_norm",
]
