"""Absolute-difference triangle toolkit: Gilbreath-style verification and experiments."""

from .triangle import Row, iterate_until, ultimate_iterate
from .parity import ParityMask, mask, parity_of_ultimate, prob_even
from .blocks import (
    BlockReport,
    check_block_destruction,
    check_inverse_iterates,
    detect_event_cascade,
    longest_block,
)
from .walks import (
    RegularDigraph,
    WalkProbability,
    all_red_probability,
    check_bootstrap,
    debruijn_graph,
    remark_counterexample,
    ultimate_iterate_coloring,
)
from .experiments import (
    ExperimentConfig,
    Schedule,
    derive_trial_stream,
    run_experiment,
    sample_gap_sequence,
    sample_uniform,
)
from .primes import SieveConfig, Verdict, stabilization_predicate, verify_gilbreath
from .lifting import ExoticCertificate, lift_search, preimages, verify_certificate

__version__ = "0.1.0"
