"""Dual-engine simulator for quantum teleportation of multipartite entangled
coherent states: an exact coherent-label algebra runs the protocol in closed
form, and a truncated photon-number-basis engine verifies it numerically.
"""

from .algebra import (
    CoherentState,
    DimensionMismatchError,
    UnsupportedStructureError,
    beam_splitter,
    dedupe,
    default_cutoff,
    fidelity,
    inner_product,
    norm,
    normalized,
    overlap,
    project_photon_number,
    superposition,
    tensor,
    trace_out,
)
from .channels import (
    ChannelSpec,
    SchmidtPair,
    build_channel,
    build_input,
    channel_amplitudes,
    concurrence_closed_form,
    input_amplitudes,
    schmidt_coefficients,
)
from .fock import (
    channel_concurrence_oracle,
    reduce_to_qubits,
    wootters_concurrence,
)
from .noise import (
    apply_loss,
    channel_fidelity,
    teleported_fidelity_exact,
)
from .teleport import (
    ProtocolOutcome,
    ProtocolReport,
    fold_network,
    run_protocol,
    success_probability_closed_form,
    teleport_through_noise,
)

__version__ = "0.1.0"
