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
    fidelity,
    inner_product,
    norm,
    normalized,
    overlap,
    phase_shift_pi,
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
    FockVector,
    bs_unitary,
    default_cutoff,
    encode,
    measure_number,
    reduce_to_qubits,
    wootters_concurrence,
)
from .noise import (
    LossModel,
    apply_loss,
    channel_fidelity,
    teleported_fidelity_exact,
)
from .teleport import (
    ProtocolOutcome,
    ProtocolReport,
    bob_state,
    enumerate_outcomes,
    fold_network,
    run_protocol,
    success_probability_closed_form,
    teleport_through_noise,
)

__version__ = "0.1.0"
