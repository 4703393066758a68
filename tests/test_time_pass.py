"""The time pass: ``Ladder.time`` computes a depth's time from the depths
below, the level's acceptance probabilities and the racing links' maxima.

It must give, bit for bit, what the builders gave when each of them timed
the pair it returned; readers that print no time (fixed points, the
asymptote, the sampler) must compute none; and the error paths that
reached a time through the builders must still fail the same way.
"""

import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from qrepeater import cli, protocol, timing
from qrepeater.analysis import (
    apply_overrides,
    asymptotic_fidelity,
    fixed_point_at_distance,
    sweep,
)
from qrepeater.channel import LinkParams
from qrepeater.config import RunConfig
from qrepeater.ops import NoiseParams
from qrepeater.protocol import (
    Ladder,
    ProtocolConfig,
    ProtocolError,
    _link_prob_and_unit,
    monte_carlo_time,
    nesting_depth,
    run_protocol,
)
from qrepeater.timing import max_all, max_of_geometric, restarting_rounds

#: Depths 0..MAX_DEPTH are compared; target span 2^(MAX_DEPTH+1) - 1 has MAX_DEPTH levels.
MAX_DEPTH = 10
TARGET_SPAN = 2 ** (MAX_DEPTH + 1) - 1
#: The default link, one with no classical time, and the longest link
#: whose success probability P still has 1 - P < 1.
LINKS = (LinkParams(), LinkParams(tc_s=0.0), LinkParams(l0_km=1400.0))
README_AXES = {"f0": [0.96, 0.97, 0.98, 0.99, 1.0], "target_span": [3, 7, 15, 31, 63, 127]}
P_ZERO = "elementary link never succeeds (P = 0)"


# Reference: the time composition as the builders carried it before it
# moved into Ladder.time, each builder timing the pair it returned.

def reference_b_time(left, right, span, prob, unit, tc):
    """``build_b_pair``: two span-n A pairs and a central link race."""
    if span == 1:
        group = max_of_geometric(3, prob, unit)
    else:
        group = max_all([left, right, max_of_geometric(1, prob, unit)])
    return group.shifted(tc)


def reference_helper_time(half, half_span, helper_q, prob, unit, tc):
    """``_helper_pair``: two swapped halves, refined by one restarting round."""
    if half_span == 1:
        group = max_of_geometric(2, prob, unit)
    else:
        group = max_all([half, half])
    base = group.shifted(tc)
    return restarting_rounds(base, base, tc, [helper_q])


def reference_c_time(inner, prob, unit, tc):
    """``build_c_pair``: three links race two copies of the helper (or, at
    the lowest level, nothing)."""
    links = max_of_geometric(3, prob, unit)
    group = links if inner is None else max_all([inner, inner, links])
    return group.shifted(tc)


def reference_pump_time(b, c, probs, tc):
    """``pump``: m = 0 relabels the B pair, keeping its time."""
    if not probs:
        return b
    return restarting_rounds(b, c, tc, list(probs))


def reference_times(config):
    """Yield the time at depth 0, 1, ... as the builders composed it, on
    the states and acceptance probabilities of a separate ladder."""
    prob, unit = _link_prob_and_unit(config)
    tc = config.link.classical_time_s
    ladder = Ladder(config)
    times = [max_of_geometric(1, prob, unit)]  # the elementary pair
    yield times[0]
    for idx in range(MAX_DEPTH):
        ladder.pair(idx + 1)
        level = ladder.levels[idx]
        # Level idx reads the pairs over spans 2^(idx+1) - 1 and 2^idx - 1.
        b = reference_b_time(times[idx], times[idx], 2 ** (idx + 1) - 1, prob, unit, tc)
        helper = None
        if idx:
            half, q = times[idx - 1], level.helper_q
            helper = reference_helper_time(half, 2**idx - 1, q, prob, unit, tc)
        c = reference_c_time(helper, prob, unit, tc)
        times.append(reference_pump_time(b, c, level.step_probs, tc))
        yield times[-1]


def bits(duration):
    return duration.mean.hex(), duration.var.hex()


ms = st.one_of(
    st.integers(0, 4),
    st.lists(st.integers(0, 4), min_size=MAX_DEPTH, max_size=MAX_DEPTH).map(tuple),
)


@st.composite
def configs(draw):
    p_eta = draw(st.floats(0.97, 1.0))
    noise = NoiseParams(p_eta, p_eta, draw(st.floats(0.0, 0.5)))
    f0 = draw(st.one_of(st.none(), st.floats(0.9, 1.0)))
    return ProtocolConfig(draw(st.sampled_from(LINKS)), noise, draw(ms), TARGET_SPAN, f0)


HEADLINE = ProtocolConfig(
    LinkParams(p_em=0.08, eps_local=0.5, tc_s=70e-6), NoiseParams(0.995, 0.995), 1, TARGET_SPAN
)


class TestTimePassMatchesBuilders:
    @settings(max_examples=150, deadline=None)
    @given(config=configs(), walked_first=st.booleans())
    @example(config=HEADLINE, walked_first=False)
    @example(config=HEADLINE, walked_first=True)
    @example(config=ProtocolConfig(LINKS[2], NoiseParams(), (0, 1) * 5, TARGET_SPAN, 0.97),
             walked_first=False)
    def test_every_depth_bit_identical(self, config, walked_first):
        ladder = Ladder(config)
        if walked_first:
            # States read first (as the asymptote does) change no time.
            try:
                ladder.pair(MAX_DEPTH)
            except ProtocolError:
                pass
        reference = reference_times(config)
        for depth in range(MAX_DEPTH + 1):
            try:
                expected = next(reference)
            except OverflowError:
                message = f"expected time overflows a float at level {depth - 1}"
                with pytest.raises(ProtocolError, match=f"^{message}$"):
                    ladder.time(depth)
                return
            except ProtocolError as exc:
                with pytest.raises(ProtocolError, match=f"^{re.escape(str(exc))}$"):
                    ladder.time(depth)
                return
            assert bits(ladder.time(depth)) == bits(expected)
        assert ladder.time(MAX_DEPTH) is ladder.time(MAX_DEPTH)
        assert run_protocol(config).total_expected_time == ladder.time(config.depth).mean


@pytest.fixture
def time_calls(monkeypatch):
    """Counts the moment-algebra calls the protocol makes; ``max_all``
    folds ``max_pair``, which it looks up in ``timing``."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(timing, "max_pair", counted("max_pair", timing.max_pair))
    for name in ("restarting_rounds", "max_of_geometric"):
        monkeypatch.setattr(protocol, name, counted(name, getattr(protocol, name)))
    return calls


class TestReadersComputeOnlyTheTimesTheyRead:
    def test_fixed_points_asymptote_and_sampler_compute_none(self, time_calls):
        cfg = RunConfig(f0=0.98, target_span=15).protocol_config()
        assert asymptotic_fidelity(cfg).converged
        assert fixed_point_at_distance(cfg, 15).converged
        assert monte_carlo_time(cfg, seed=3, trials=50).n_trials == 50
        assert not time_calls

    def test_readme_sweep_times_its_rows_depths_only(self, time_calls):
        base = RunConfig(tc_s=70e-6).protocol_config()
        rows = sweep(base, README_AXES)
        assert all(row["error"] == "" for row in rows)
        in_sweep = Counter(time_calls)
        assert in_sweep["max_pair"] and in_sweep["restarting_rounds"]
        time_calls.clear()
        # Each f0's ladder is timed up to its deepest row, span 127, and no deeper.
        deepest = nesting_depth(max(README_AXES["target_span"]))
        for f0 in README_AXES["f0"]:
            Ladder(apply_overrides(base, f0=f0)).time(deepest)
        assert in_sweep == time_calls


class TestErrorPaths:
    def test_p_zero_link_with_pinned_f0_fails_every_reader(self):
        cfg = ProtocolConfig(LinkParams(l0_km=5000.0), NoiseParams(), 3, 7, f0=0.9)
        for read in (
            lambda: fixed_point_at_distance(cfg, 7),
            lambda: asymptotic_fidelity(cfg),
            lambda: monte_carlo_time(cfg, seed=0, trials=10),
            lambda: run_protocol(cfg),
        ):
            with pytest.raises(ProtocolError, match=re.escape(P_ZERO)):
                read()
        (row,) = sweep(cfg, {"target_span": [7]})
        assert row["error"] == P_ZERO and row["expected_time_s"] is None

    def test_negative_depth_rejected(self):
        ladder = Ladder(RunConfig(target_span=7).protocol_config())
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            ladder.time(-1)
        assert ladder.levels == []

    def test_headline_overflow_names_its_level_and_builds_no_level_past_it(
        self, monkeypatch, capsys
    ):
        built = []
        real = protocol.build_b_pair

        def logged(a_left, a_right, config):
            built.append(a_left)
            return real(a_left, a_right, config)

        monkeypatch.setattr(protocol, "build_b_pair", logged)
        assert cli.main(["headline", "--distance-km", "1e80"]) == 2
        assert "expected time overflows a float at level 208" in capsys.readouterr().err
        # Levels 0..208, each once: a ladder builds its levels in order.
        assert len(built) == 209
