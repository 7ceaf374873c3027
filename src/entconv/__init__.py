"""entconv: numerical simulator of measurement-assisted photonic entanglement
conversion (GHZ to W/Dicke) built on emitter-resonator conditional reflection
gates and probe-phase homodyne readout."""

from .cavity import CavityParams, empty_reflection, reflection_coefficient, spin_photon_map
from .cnot import benchmark_report, fidelity_grid
from .config import ConfigError, config_from_dict, load_config
from .kerr import HomodyneModel, error_probability, homodyne_pdf, peak_distances
from .protocols import (
    ProtocolRun,
    ProtocolSpec,
    StateClass,
    SuccessSeries,
    circuit_wiring,
    classify_state,
    composite_fidelity_report,
    conversion_input,
    fidelity_vs_ideal,
    monte_carlo,
    recovery_sequence,
    run_protocol,
    success_series,
)
from .qstate import ket

__version__ = "0.1.0"
