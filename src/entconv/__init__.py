"""entconv: numerical simulator of measurement-assisted photonic entanglement
conversion (GHZ to W/Dicke) built on emitter-resonator conditional reflection
gates and probe-phase homodyne readout."""

__version__ = "0.1.0"
