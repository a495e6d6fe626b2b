"""Decay weighting tests.

The exponential closed form is checked against mpmath at 50 decimal digits;
graph construction is checked against a per-user brute-force pass.
"""

import math

import mpmath
import numpy as np
import pytest

from driftrec.decay import (
    SECONDS_PER_DAY,
    DecaySpec,
    build_weighted_graph,
    decay_weight,
)
from conftest import make_log

mpmath.mp.dps = 50


def mp_exp_weight(rate, gap_seconds, time_unit):
    return mpmath.exp(-mpmath.mpf(rate) * mpmath.mpf(gap_seconds) / time_unit)


class TestDecayWeight:
    def test_zero_gap_all_kinds(self):
        for kind in ("exponential", "linear", "power"):
            spec = DecaySpec(kind=kind, rate=0.05)
            assert decay_weight(0, spec) == 1.0

    def test_exponential_100_days(self):
        spec = DecaySpec(rate=0.01, time_unit=SECONDS_PER_DAY)
        got = decay_weight(100 * SECONDS_PER_DAY, spec)
        want = float(mp_exp_weight(0.01, 100 * SECONDS_PER_DAY, SECONDS_PER_DAY))
        assert abs(got - want) <= 1e-12 * want
        assert got == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_linear_clamped_to_zero(self):
        spec = DecaySpec(kind="linear", rate=0.01, time_unit=SECONDS_PER_DAY)
        assert decay_weight(200 * SECONDS_PER_DAY, spec) == 0.0

    def test_linear_formula(self):
        spec = DecaySpec(kind="linear", rate=0.01, time_unit=SECONDS_PER_DAY)
        got = decay_weight(30 * SECONDS_PER_DAY, spec)
        assert got == pytest.approx(0.7, rel=1e-12)

    def test_power_formula_against_mpmath(self):
        spec = DecaySpec(kind="power", rate=0.5, time_unit=SECONDS_PER_DAY)
        rng = np.random.default_rng(5)
        for _ in range(50):
            days = float(rng.uniform(0, 5000))
            got = decay_weight(days * SECONDS_PER_DAY, spec)
            want = float((1 + mpmath.mpf(days)) ** mpmath.mpf(-0.5))
            assert abs(got - want) <= 1e-12 * want

    def test_rate_zero_gives_one(self):
        for kind in ("exponential", "linear", "power"):
            spec = DecaySpec(kind=kind, rate=0.0)
            gaps = np.array([0, 10, 10**7])
            assert np.all(decay_weight(gaps, spec) == 1.0)

    def test_array_and_scalar_shapes(self):
        spec = DecaySpec(rate=0.01)
        out = decay_weight(np.array([0, SECONDS_PER_DAY]), spec)
        assert out.shape == (2,)
        assert isinstance(decay_weight(0, spec), float)

    def test_exponential_grid_high_precision(self):
        """Relative error vs 50-digit reference, representable range."""
        rng = np.random.default_rng(13)
        rates = (0.001, 0.005, 0.01, 0.05, 0.1)
        days = np.r_[0.0, 1.0, rng.uniform(0, 10_000, size=40), 10_000.0]
        for rate in rates:
            spec = DecaySpec(rate=rate, time_unit=SECONDS_PER_DAY)
            for d in days:
                gap = d * SECONDS_PER_DAY
                want = mp_exp_weight(rate, gap, SECONDS_PER_DAY)
                got = decay_weight(gap, spec)
                if want >= mpmath.mpf("1e-290"):
                    assert abs(got - float(want)) <= 1e-12 * float(want)
                else:
                    # below the comfortably-normal float64 range the closed
                    # form underflows; only the magnitude ceiling is testable
                    assert got <= 1e-290

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            DecaySpec(kind="hyperbolic")
        with pytest.raises(ValueError, match="rate"):
            DecaySpec(rate=-0.1)
        with pytest.raises(ValueError, match="time_unit"):
            DecaySpec(time_unit=0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate(self, rate):
        """A NaN rate passed the sign check and put every edge in the top layer."""
        with pytest.raises(ValueError, match=f"^decay rate must be a finite number, got {rate!r}$"):
            DecaySpec(rate=rate)

    def test_monotone_in_gap(self):
        rng = np.random.default_rng(3)
        gaps = np.sort(rng.uniform(0, 1000 * SECONDS_PER_DAY, size=100))
        for kind in ("exponential", "linear", "power"):
            w = decay_weight(gaps, DecaySpec(kind=kind, rate=0.01))
            assert np.all(np.diff(w) <= 0)


class TestBuildWeightedGraph:
    def test_single_interaction_weight_one(self):
        log = make_log([("a", "x", 500)])
        graph = build_weighted_graph(log, DecaySpec(rate=0.3))
        assert graph.weights.tolist() == [1.0]
        assert graph.user_last_time[0] == 500

    def test_two_interactions_closed_form(self):
        T = 7
        log = make_log([("a", "x", 0), ("a", "y", T)])
        spec = DecaySpec(rate=0.2, time_unit=1)
        graph = build_weighted_graph(log, spec)
        by_item = dict(zip(graph.items.tolist(), graph.weights.tolist()))
        assert by_item[1] == 1.0
        assert by_item[0] == pytest.approx(float(mpmath.exp(-0.2 * T)), rel=1e-12)

    def test_rate_zero_all_ones(self):
        log = make_log([("a", "x", 0), ("a", "y", 9), ("b", "z", 4)])
        graph = build_weighted_graph(log, DecaySpec(rate=0.0))
        assert np.all(graph.weights == 1.0)

    def test_every_user_has_weight_one_edge(self):
        rng = np.random.default_rng(21)
        rows = [
            (f"u{rng.integers(6)}", f"i{rng.integers(30)}", int(rng.integers(0, 10**6)))
            for _ in range(120)
        ]
        log = make_log(rows)
        graph = build_weighted_graph(log, DecaySpec(rate=0.05))
        assert np.all(graph.weights > 0) and np.all(graph.weights <= 1.0)
        for u in np.unique(graph.users):
            assert graph.weights[graph.users == u].max() == 1.0

    def test_matches_per_user_brute_force(self):
        rng = np.random.default_rng(8)
        rows = [
            (f"u{rng.integers(5)}", f"i{rng.integers(40)}", int(rng.integers(0, 10**7)))
            for _ in range(200)
        ]
        log = make_log(rows)
        spec = DecaySpec(rate=0.02, time_unit=3600)
        graph = build_weighted_graph(log, spec)
        last = {}
        for u, t in zip(log.users.tolist(), log.times.tolist()):
            last[u] = max(last.get(u, -1), t)
        for u, i, t, w in zip(
            graph.users.tolist(), graph.items.tolist(), log.times.tolist(), graph.weights.tolist()
        ):
            want = float(mp_exp_weight(0.02, last[u] - t, 3600))
            assert abs(w - want) <= 1e-12 * want

    def test_edge_set_equals_train(self):
        log = make_log([("a", "x", 0), ("a", "y", 9), ("b", "z", 4)])
        graph = build_weighted_graph(log, DecaySpec())
        assert np.array_equal(graph.users, log.users)
        assert np.array_equal(graph.items, log.items)

    def test_empty_log_error(self, line_log):
        empty = line_log._replace_arrays(np.zeros(len(line_log), dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            build_weighted_graph(empty, DecaySpec())
