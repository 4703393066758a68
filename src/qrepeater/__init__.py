"""Two-qubit-per-node quantum repeater simulator.

Library layout:

- :mod:`qrepeater.bell` -- Bell-diagonal states
- :mod:`qrepeater.ops` -- purification and swapping recurrences under noise
- :mod:`qrepeater.exact` -- exact density matrices and the brute-force 16x16
  oracle for the same primitives (the only module that imports numpy on load)
- :mod:`qrepeater.channel` -- lossy-link success probability, fidelity and timing
- :mod:`qrepeater.protocol` -- the nested pumping protocol and its time models
- :mod:`qrepeater.analysis` -- fixed points, asymptotes and parameter sweeps
- :mod:`qrepeater.cli` -- the ``qrepeater`` command-line front end
"""

from .bell import BellDiagonalState, fidelity, from_fidelity
from .channel import (
    LinkParams,
    PhotonOracleResult,
    channel_efficiency,
    entangle_success_prob,
    expected_link_time,
    initial_fidelity,
    link_state,
    p_em_for_fidelity,
    photon_mode_oracle,
)
from .ops import NoiseParams, PurifyOutcome, connect_chain, purify, swap
from .protocol import (
    PairRecord,
    ProtocolConfig,
    ProtocolError,
    ProtocolResult,
    TimeDistribution,
    build_b_pair,
    build_c_pair,
    elementary_pair,
    monte_carlo_time,
    nesting_depth,
    pump,
    round_span_up,
    run_protocol,
)
from .analysis import (
    FixedPointResult,
    asymptotic_fidelity,
    fixed_point_at_distance,
    sweep,
)

#: Every class and function imported above; the submodules, not being
#: callable, stay out.
__all__ = sorted(name for name, value in globals().items() if callable(value) and name[0] != "_")

__version__ = "0.1.0"
