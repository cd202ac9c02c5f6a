"""Spin-polarizing interferometric beam splitter for free electrons.

An analytic four-mode Bragg model, three numerical Pauli-equation backends,
channel/spin analysis, and the experiment design calculator.
"""

__version__ = "0.1.0"

from .analytic import (
    EffectivePotential,
    StageUnitary,
    effective_potential_value,
    evolve_density,
    rabi_frequency_bi,
    rabi_frequency_mono,
    stage_unitary,
    total_evolution,
)
from .fields import (
    BichromaticWave,
    Envelope,
    FieldStage,
    MonoStandingWave,
    magnetic_field,
    vector_potential,
)
from .observables import (
    ChannelReport,
    RabiFit,
    channel_report,
    fit_rabi,
    mode_channel_report,
    polarization_degree,
    spin_momentum_entanglement,
)
from .propagation import (
    ModeLatticeEngine,
    PacketSpec,
    PropagationConfig,
    Scenario,
    ScenarioResult,
    TimeSeries,
    run_scenario,
    stage_pulse_areas,
    with_backend,
)
from .scenario import load_scenario, parse_scenario_text
from .states import (
    BraggState,
    SpatialGrid,
    SpinorWavefunction,
    gaussian_packet,
    spin_expectations,
)

# the design calculator and its names, loaded on first use: of the commands,
# only ``design`` runs it
_DESIGN = ("design", "DesignReport", "LaserSpec", "ToleranceBudget", "full_design_report",
           "intensity_from_xi", "interaction_geometry", "momentum_acceptance", "no_flip_rabi",
           "paper_design_report", "pulse_energy_mj", "scatter_probability_uncertainty")


def __getattr__(name):
    if name not in _DESIGN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # not ``from . import``, whose attribute check would come back here

    design = importlib.import_module(".design", __name__)
    return design if name == "design" else getattr(design, name)


__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_DESIGN))
