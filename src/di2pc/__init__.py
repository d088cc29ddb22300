"""Device-independent bounded-storage security toolkit.

Library + CLI for CHSH-certified security analysis of weak string erasure
and position verification against adversaries whose quantum memory has a
bounded dimension d (no storage channel is modelled): Jordan
block analysis of binary measurement pairs, closed-form cheating bounds,
honest protocol simulation, and exact desk-scale adversary evaluation that
checks the bounds against concrete attacks.

The package loads lazily (PEP 562): ``import di2pc`` imports neither numpy
nor any submodule. A name below, or a submodule such as ``di2pc.bounds``,
is imported on first access and then kept in the package namespace.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "errors": """ArityError CapExceededError Di2pcError DimensionCapError DomainError
        NonphysicalViolationError ShapeError StrategyError""",
    "matcore": """RandomSuite child_seed eig_hermitian induced_norm matrix_abs
        operator_norm partial_trace psd_sqrt tensor_product""",
    "jordan": """BinaryMeasurement JordanBlock JordanDecomposition block_probabilities
        decompose_pair epsilon_plus_blocks epsilon_plus_direct naimark_dilate""",
    "chsh": """TSIRELSON ChshEstimate ChshSetup chsh_operator chsh_value estimate_chsh
        zeta_certificate zeta_from_violation""",
    "bounds": """INSECURE BoundReport binary_entropy bound_imperfect bound_perfect
        bound_perfect_sumform bound_report decay_condition gamma_star hamming_ball
        min_rounds security_region threshold""",
    "protocols": """DeviceModel PvConfig PvTranscript WseTranscript apply_depolarizing
        completeness_report ideal_bb84_device run_pv run_wse""",
    "adversary": """GeneralEncoding GuessResult MeasureAll StoreSubset breidbart
        exact_win_probability optimal_discrimination random_qubit_device seesaw_search
        verify_key_lemma verify_norm_lemma verify_overlap_lemma""",
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORIGIN.keys() | _SUBMODULES)
