"""Device-independent bounded-storage security toolkit.

Library + CLI for CHSH-certified security analysis of weak string erasure
and position verification against bounded/noisy quantum storage: Jordan
block analysis of binary measurement pairs, closed-form cheating bounds,
honest protocol simulation, and exact desk-scale adversary evaluation that
checks the bounds against concrete attacks.
"""

from .errors import (
    ArityError,
    CapExceededError,
    Di2pcError,
    DimensionCapError,
    DomainError,
    NonphysicalViolationError,
    ShapeError,
    StrategyError,
)
from .matcore import (
    RandomSuite,
    child_seed,
    eig_hermitian,
    induced_norm,
    matrix_abs,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    partial_trace,
    psd_sqrt,
    tensor_product,
)
from .jordan import (
    BinaryMeasurement,
    JordanBlock,
    JordanDecomposition,
    block_probabilities,
    decompose_pair,
    epsilon_plus_blocks,
    epsilon_plus_direct,
    naimark_dilate,
)
from .chsh import (
    TSIRELSON,
    ChshEstimate,
    ChshSetup,
    chsh_operator,
    chsh_value,
    estimate_chsh,
    zeta_certificate,
    zeta_from_violation,
)
from .bounds import (
    INSECURE,
    BoundReport,
    binary_entropy,
    bound_imperfect,
    bound_perfect,
    bound_perfect_sumform,
    bound_report,
    decay_condition,
    gamma_star,
    hamming_ball,
    min_rounds,
    security_region,
    threshold,
)
from .protocols import (
    DeviceModel,
    PvConfig,
    PvTranscript,
    WseTranscript,
    apply_depolarizing,
    completeness_report,
    ideal_bb84_device,
    run_pv,
    run_wse,
)
from .adversary import (
    GeneralEncoding,
    GuessResult,
    MeasureAll,
    StoreSubset,
    breidbart,
    exact_win_probability,
    optimal_discrimination,
    random_qubit_device,
    seesaw_search,
    verify_key_lemma,
    verify_norm_lemma,
    verify_overlap_lemma,
)

__version__ = "0.1.0"
