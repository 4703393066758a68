"""Completion-time moment algebra against brute-force sampling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qrepeater.timing import (
    Duration,
    max_all,
    max_of_geometric,
    max_pair,
    restarting_rounds,
)


class TestGeometricMax:
    def test_single_geometric_moments(self):
        d = max_of_geometric(1, 0.25, 2.0)
        assert d.mean == pytest.approx(2.0 / 0.25, rel=1e-12)
        assert d.var == pytest.approx(4.0 * 0.75 / 0.25**2, rel=1e-12)

    @pytest.mark.parametrize("count, p", [(2, 0.3), (3, 0.1), (3, 0.6), (5, 0.02)])
    def test_matches_sampling(self, count, p):
        rng = np.random.default_rng(7)
        samples = rng.geometric(p, size=(200_000, count)).max(axis=1)
        d = max_of_geometric(count, p, 1.0)
        assert d.mean == pytest.approx(samples.mean(), rel=0.01)
        assert np.sqrt(d.var) == pytest.approx(samples.std(), rel=0.02)


class TestSeqAndMax:
    def test_max_pair_degenerate(self):
        d = max_pair(Duration(3.0, 0.0), Duration(5.0, 0.0))
        assert (d.mean, d.var) == (5.0, 0.0)

    def test_max_of_normals_close_to_sampling(self):
        rng = np.random.default_rng(11)
        x = rng.normal(10.0, 2.0, size=500_000)
        y = rng.normal(11.0, 1.0, size=500_000)
        m = np.maximum(x, y)
        d = max_pair(Duration(10.0, 4.0), Duration(11.0, 1.0))
        assert d.mean == pytest.approx(m.mean(), rel=0.005)
        assert d.var == pytest.approx(m.var(), rel=0.03)

    def test_max_all_requires_input(self):
        with pytest.raises(ValueError):
            max_all([])


class TestRestartingRounds:
    @staticmethod
    def _simulate(base_mean, round_mean, overhead, probs, n=300_000, seed=3):
        rng = np.random.default_rng(seed)
        total = np.zeros(n)
        pending = np.arange(n)
        while pending.size:
            cost = np.full(pending.size, base_mean)
            alive = np.ones(pending.size, dtype=bool)
            for q in probs:
                idx = np.flatnonzero(alive)
                cost[idx] += round_mean + overhead
                alive[idx[rng.random(idx.size) >= q]] = False
            total[pending] += cost
            pending = pending[~alive]
        return total

    def test_no_rounds_returns_base(self):
        base = Duration(4.0, 2.0)
        assert restarting_rounds(base, Duration(1.0), 0.1, []) == base

    def test_certain_acceptance_is_plain_sum(self):
        d = restarting_rounds(Duration(4.0, 2.0), Duration(1.0, 0.5), 0.25, [1.0, 1.0])
        assert d.mean == pytest.approx(4.0 + 2 * 1.25, rel=1e-12)
        assert d.var == pytest.approx(2.0 + 2 * 0.5, rel=1e-12)

    @pytest.mark.parametrize("probs", [[0.8], [0.9, 0.7], [0.85, 0.8, 0.75]])
    def test_mean_matches_simulation_with_deterministic_stages(self, probs):
        sim = self._simulate(5.0, 2.0, 0.5, probs)
        d = restarting_rounds(Duration(5.0, 0.0), Duration(2.0, 0.0), 0.5, probs)
        assert d.mean == pytest.approx(sim.mean(), rel=0.01)
        assert np.sqrt(d.var) == pytest.approx(sim.std(), rel=0.02)

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            restarting_rounds(Duration(1.0), Duration(1.0), 0.0, [0.0])


    @given(
        base=st.floats(min_value=0.0, max_value=100.0),
        base_var=st.floats(min_value=0.0, max_value=10.0),
        round_mean=st.floats(min_value=0.0, max_value=10.0),
        overhead=st.floats(min_value=0.0, max_value=1.0),
        probs=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_mean_nonincreasing_in_each_acceptance(
        self, base, base_var, round_mean, overhead, probs, data
    ):
        k = data.draw(st.integers(min_value=0, max_value=len(probs) - 1))
        higher = data.draw(st.floats(min_value=probs[k], max_value=1.0))
        raised = probs[:k] + [higher] + probs[k + 1:]
        base_d, round_d = Duration(base, base_var), Duration(round_mean, 0.5)
        before = restarting_rounds(base_d, round_d, overhead, probs).mean
        after = restarting_rounds(base_d, round_d, overhead, raised).mean
        assert after <= before * (1 + 1e-12) + 1e-12
