"""Coded modulation over regenerated relay spans.

Building blocks for studying links where an inline unit makes symbol
decisions (or rescales the waveform) midway: hard-decision transition
matrices, equivalent-channel demapping, achievable-rate sweeps, spatially
coupled LDPC codes with windowed decoding, and containers that let the
midpoint splice its own traffic into a passing codeword.
"""

from .channel import (
    DmcMatrix,
    LinkModel,
    compose_dmc,
    nearest_index,
    scale_relay_equivalent_snr,
    transition_matrix,
    transmit,
)
from .constellation import (
    Constellation,
    bits_for_indices,
    build_constellation,
    indices_for_bits,
)
from .container import (
    Container,
    plan_container,
    relay_add,
    select_llrs,
)
from .demapper import Demapper, piecewise_linear_fit
from .errors import (
    CollisionError,
    ConfigError,
    NumericalDegeneracyError,
    RelaycmError,
)
from .gmi import (
    GmiEstimate,
    RelayGmiEvaluator,
    gmi_from_llrs,
    optimal_llr_scale,
    required_snr2_db,
    single_hop_gmi,
)
from .scldpc import SpatiallyCoupledCode, build_code, decode, design_rate

__version__ = "0.1.0"

__all__ = [
    "CollisionError",
    "ConfigError",
    "Constellation",
    "Container",
    "Demapper",
    "DmcMatrix",
    "GmiEstimate",
    "LinkModel",
    "NumericalDegeneracyError",
    "RelayGmiEvaluator",
    "RelaycmError",
    "SpatiallyCoupledCode",
    "bits_for_indices",
    "build_code",
    "build_constellation",
    "compose_dmc",
    "decode",
    "design_rate",
    "gmi_from_llrs",
    "indices_for_bits",
    "nearest_index",
    "optimal_llr_scale",
    "plan_container",
    "piecewise_linear_fit",
    "relay_add",
    "required_snr2_db",
    "scale_relay_equivalent_snr",
    "select_llrs",
    "single_hop_gmi",
    "transition_matrix",
    "transmit",
]
