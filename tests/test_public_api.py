"""The package's public names, pinned so that an addition or a removal
shows up as a diff to this list."""

import qrepeater

PUBLIC_API = [
    "BellDiagonalState",
    "FixedPointResult",
    "LinkParams",
    "NoiseParams",
    "PhotonOracleResult",
    "ProtocolConfig",
    "ProtocolError",
    "ProtocolResult",
    "PurifyOutcome",
    "TimeDistribution",
    "asymptotic_fidelity",
    "build_b_pair",
    "build_c_pair",
    "channel_efficiency",
    "connect_chain",
    "entangle_success_prob",
    "expected_link_time",
    "fidelity",
    "fixed_point_at_distance",
    "from_fidelity",
    "initial_fidelity",
    "link_state",
    "monte_carlo_time",
    "nesting_depth",
    "p_em_for_fidelity",
    "photon_mode_oracle",
    "pump",
    "purify",
    "round_span_up",
    "run_protocol",
    "swap",
    "sweep",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert qrepeater.__all__ == PUBLIC_API
    assert all(callable(getattr(qrepeater, name)) for name in PUBLIC_API)
