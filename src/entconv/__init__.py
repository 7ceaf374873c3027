"""entconv: numerical simulator of measurement-assisted photonic entanglement
conversion (GHZ to W/Dicke) built on emitter-resonator conditional reflection
gates and probe-phase homodyne readout."""

from .cavity import CavityParams, SpinPhotonMap, empty_reflection, reflection_coefficient, spin_photon_map
from .cnot import (
    GateFidelityPoint,
    benchmark_report,
    cnot_fidelity,
    cnot_ideal,
    fidelity_grid,
    uniform_input,
)
from .config import ConfigError, OutputSpec, RunConfig, SweepGrid, config_from_dict, config_to_dict, load_config
from .kerr import HomodyneModel, error_probability, homodyne_pdf, peak_distances
from .optics import hwp, qwp, spin_hadamard
from .protocols import (
    MonteCarloResult,
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
from .qstate import (
    MeasurementRecord,
    Pol,
    QuantumState,
    Spin,
    SPIN,
    apply_controlled,
    apply_single_qubit,
    attach_spin,
    discard_spin,
    inner,
    ket,
    make_basis_state,
    measure_site,
    measure_spin,
    superpose,
)

__version__ = "0.1.0"
