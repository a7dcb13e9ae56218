"""Physical-layer toolkit for quantum-illumination-enhanced backscatter links."""

from .gaussian import (
    GaussianState,
    apply_beam_splitter,
    apply_two_mode_squeeze,
    coherent,
    heterodyne_samples,
    mean_photon_number,
    partial_trace,
    phase_sensitive_correlation,
    symplectic_eigenvalues,
    tensor,
    thermal,
    tmss,
    vacuum,
)
from .link import (
    Alphabet,
    AlphabetKind,
    ChannelParams,
    LinkBudget,
    Symbol,
    UnsupportedAlphabetError,
    apply_channel,
    apply_channel_classical,
    channel_phase,
    make_alphabet_bpsk,
    make_alphabet_pam,
    make_alphabet_qpsk,
    min_squared_distance,
    mode_pairs,
    return_idler_moments,
    rtt_from_link_budget,
    thermal_occupancy,
)
from .receivers import (
    ReceiverKind,
    ReceiverSpec,
    SfgBookkeeping,
    sfg_bookkeeping,
    sfg_count_rate,
    sfg_nulling_params,
)
from .analytics import (
    BoundKind,
    EpBound,
    classical_ep_lower_bound,
    erfc_eval,
    eve_exponent_ratio,
    exponent_gain_db,
    pa_ep_upper_bound,
    power_divider_penalty,
    sfg_ep_upper_bound,
)
from .fock import (
    FockOperator,
    chernoff_exponent_oracle,
    gaussian_to_fock,
    helstrom_oracle,
)
from .montecarlo import (
    BerCurve,
    BerCurvePoint,
    ExperimentConfig,
    derive_trial_seed,
    eve_random_phase_ber,
    fit_error_exponent,
    run_experiment,
    wilson_interval,
)

__version__ = "0.1.0"
