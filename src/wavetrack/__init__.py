"""Front tracking for convex scalar conservation laws, paired runs, and
decay estimates for the transported difference.

The package evolves piecewise-constant data by exact front tracking,
forms the difference of two runs as a transported quantity with a
piecewise-constant advection coefficient, classifies the coefficient's
jumps (Lax, undercompressive, rarefaction-side), and audits weighted L1
decay identities, gain caps, one-sided compression, and characteristic
funnels.  Everything runs in float or exact rational arithmetic.

Quick start::

    from wavetrack import (
        FrontTrackingRun, CoefficientField, burgers_flux,
        Profile, ledger_reports,
    )

    flux = burgers_flux()
    u1 = Profile([0.0], [1.0, -1.0])          # single shock
    u2 = Profile.constant(0.0)
    run_I = FrontTrackingRun(flux, u1, h=0.1).evolve(2.0)
    run_II = FrontTrackingRun(flux, u2, h=0.1).evolve(2.0)
    field = CoefficientField(run_I, run_II)
    # None books the plain norm, a number m the weighted norm with offset m
    (plain, weighted), _ = ledger_reports(field, [None, 1.0], 0.0, 2.0)
    assert plain.passed and weighted.passed
"""

from .characteristics import (
    CharacteristicPath,
    MaxPrincipleReport,
    OleinikReport,
    export_paths_csv,
    maximum_principle_check,
    oleinik_report,
)
from .coupling import (
    FAST,
    LAX,
    RAREFACTION_SHOCK,
    SLOW,
    ClassifiedJump,
    CoefficientField,
    FieldSlice,
    InconsistentFieldError,
    WeightField,
    classify,
)
from .fluxes import (
    FluxModel,
    burgers_flux,
    exponential_flux,
    make_flux,
    quartic_flux,
    rankine_hugoniot_speed,
    secant_speed,
)
from .functional import (
    FunctionalReport,
    GainCapReport,
    MonotonicityReport,
    ProductRuleReport,
    default_window,
    gain_cap_report,
    ledger_reports,
    monotonicity_report,
    product_inequality_check,
    refinement_study,
)
from .profiles import (
    Profile,
    profile_difference,
    profile_map2,
    total_variation,
)
from .scenarios import (
    ScenarioConfigError,
    parse_scenario,
    random_scenario_config,
    random_scenario_pair,
    run_random_suite,
    run_scenario,
    run_sweep,
)
from .tracking import (
    Front,
    FrontTrackingRun,
    InteractionEvent,
    sample_initial_data,
    solve_riemann,
)

__version__ = "0.1.0"

__all__ = [
    "CharacteristicPath",
    "ClassifiedJump",
    "CoefficientField",
    "FAST",
    "FieldSlice",
    "FluxModel",
    "Front",
    "FrontTrackingRun",
    "FunctionalReport",
    "GainCapReport",
    "InconsistentFieldError",
    "InteractionEvent",
    "LAX",
    "MaxPrincipleReport",
    "MonotonicityReport",
    "OleinikReport",
    "Profile",
    "ProductRuleReport",
    "RAREFACTION_SHOCK",
    "SLOW",
    "ScenarioConfigError",
    "WeightField",
    "burgers_flux",
    "classify",
    "default_window",
    "exponential_flux",
    "export_paths_csv",
    "gain_cap_report",
    "ledger_reports",
    "make_flux",
    "maximum_principle_check",
    "monotonicity_report",
    "oleinik_report",
    "parse_scenario",
    "product_inequality_check",
    "profile_difference",
    "profile_map2",
    "quartic_flux",
    "random_scenario_config",
    "random_scenario_pair",
    "rankine_hugoniot_speed",
    "refinement_study",
    "run_random_suite",
    "run_scenario",
    "run_sweep",
    "sample_initial_data",
    "secant_speed",
    "solve_riemann",
    "total_variation",
]
