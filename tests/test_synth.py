import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsk import (
    MetaDistribution,
    bayes_risk,
    sample_first_stage,
    sample_second_stage,
)
from tsk.errors import InputError
from tsk.synth import bags_from_json, bags_to_json, delta_batch, eta_batch

HM = MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 0.5, margin=1.0)
OVERLAP_1D = MetaDistribution("gaussian_overlap", 1, 1.0, 1.0, 0.0, 0.5)


class TestFirstStage:
    def test_reproducible_bitwise(self):
        m1, y1 = sample_first_stage(HM, 50, 123)
        m2, y2 = sample_first_stage(HM, 50, 123)
        assert np.array_equal(m1, m2) and np.array_equal(y1, y2)
        m3, _ = sample_first_stage(HM, 50, 124)
        assert not np.array_equal(m1, m3)

    def test_degenerate_prior(self):
        meta = MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 1.0, margin=1.0)
        _, labels = sample_first_stage(meta, 200, 7)
        assert np.all(labels == 1)

    def test_zero_center_spread_pins_means(self):
        meta = MetaDistribution("hard_margin", 3, 2.0, 0.0, 0.5, 0.5, margin=1.0)
        means, labels = sample_first_stage(meta, 64, 3)
        expected = np.zeros((64, 3))
        expected[:, 0] = 2.0 * labels
        assert np.allclose(means, expected, atol=1e-12)

    def test_label_frequency(self):
        _, labels = sample_first_stage(HM, 10_000, 11)
        assert abs(np.mean(labels == 1) - 0.5) < 0.02

    def test_hard_margin_means_in_supports(self):
        means, labels = sample_first_stage(HM, 500, 5)
        centers = np.zeros((500, 2))
        centers[:, 0] = 2.0 * labels
        assert np.all(np.linalg.norm(means - centers, axis=1) <= 0.25 + 1e-12)

    def test_eta_equals_label_indicator(self):
        means, labels = sample_first_stage(HM, 200, 9)
        assert np.array_equal(eta_batch(HM, means), (1 + labels) / 2)


class TestSecondStage:
    def test_point_mass(self):
        s = sample_second_stage((np.array([1.0, -1.0]), 0.0), 3, 0)
        assert np.array_equal(s.points, np.tile([1.0, -1.0], (3, 1)))

    def test_mean_concentration(self):
        mean = np.array([0.5, -2.0])
        s = sample_second_stage((mean, 1.0), 100_000, 17)
        err = np.abs(s.points.mean(axis=0) - mean)
        assert np.all(err <= 4.0 / math.sqrt(100_000))

    def test_distinct_seeds_distinct_draws(self):
        a = sample_second_stage((np.zeros(2), 1.0), 10, 1)
        b = sample_second_stage((np.zeros(2), 1.0), 10, 2)
        assert not np.array_equal(a.points, b.points)

    def test_reproducible(self):
        a = sample_second_stage((np.zeros(2), 1.0), 10, 5)
        b = sample_second_stage((np.zeros(2), 1.0), 10, 5)
        assert np.array_equal(a.points, b.points)


class TestEta:
    def test_overlap_posterior_value(self):
        # posterior ratio of normal densities: eta = 1/(1 + exp(-2 c m / s^2))
        assert eta_batch(OVERLAP_1D, [[1.0]])[0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)

    def test_symmetric_midpoint(self):
        meta = MetaDistribution("gaussian_overlap", 3, 1.5, 0.8, 0.0, 0.5)
        assert eta_batch(meta, [[0.0, 2.0, -1.0]])[0] == pytest.approx(0.5, abs=1e-12)

    def test_hard_margin_support_indicator(self):
        assert eta_batch(HM, [[2.0, 0.1], [-2.1, 0.0]]).tolist() == [1.0, 0.0]

    def test_prior_shifts_posterior(self):
        skew = MetaDistribution("gaussian_overlap", 1, 1.0, 1.0, 0.0, 0.9)
        assert eta_batch(skew, [[0.0]])[0] == pytest.approx(0.9, abs=1e-12)


class TestBayesRisk:
    def test_hard_margin_zero(self):
        est, se = bayes_risk(HM, 2000, 3)
        assert est == 0.0 and se == 0.0

    def test_identical_center_laws_give_half(self):
        # indistinguishable classes: eta is 1/2 everywhere
        vals = eta_batch(
            MetaDistribution("gaussian_overlap", 2, 1e-12, 1.0, 0.0, 0.5), np.random.default_rng(0).normal(size=(100, 2))
        )
        assert np.allclose(vals, 0.5, atol=1e-9)

    def test_monte_carlo_stability(self):
        # estimates at increasing draw counts agree within combined errors
        ests = [bayes_risk(OVERLAP_1D, n, 31) for n in (10**5, 10**6, 10**7)]
        for (e1, s1), (e2, s2) in zip(ests, ests[1:]):
            assert abs(e1 - e2) <= 4.0 * math.hypot(s1, s2)

    def test_overlap_value_against_quadrature(self):
        # E[min(eta, 1-eta)] by direct integration over the mixture density
        from scipy.integrate import quad

        c, s = 1.0, 1.0
        dens = lambda m: 0.5 * (
            math.exp(-((m - c) ** 2) / (2 * s * s)) + math.exp(-((m + c) ** 2) / (2 * s * s))
        ) / math.sqrt(2 * math.pi * s * s)
        eta_f = lambda m: 1.0 / (1.0 + math.exp(-2.0 * c * m / (s * s)))
        target, _ = quad(lambda m: min(eta_f(m), 1 - eta_f(m)) * dens(m), -12, 12, limit=200)
        est, se = bayes_risk(OVERLAP_1D, 10**6, 77)
        assert abs(est - target) <= 4.0 * se


class TestDelta:
    def test_on_hyperplane(self):
        assert delta_batch(HM, [[0.0, 3.0]])[0] == 0.0

    def test_at_class_center(self):
        assert delta_batch(HM, [[2.0, 0.0]])[0] == pytest.approx(2.0)

    def test_at_least_margin_on_supports(self):
        means, _ = sample_first_stage(HM, 300, 13)
        assert np.all(delta_batch(HM, means) >= HM.margin - 1e-12)

    def test_truncation_by_opposite_ball(self):
        # a point far out along e1: the hyperplane is farther than the ball
        meta = MetaDistribution("hard_margin", 2, 1.0, 0.9, 0.5, 0.5, margin=0.1)
        x = np.array([5.0, 0.0])
        to_ball = np.linalg.norm(x - np.array([-1.0, 0.0])) - 0.9
        assert delta_batch(meta, x[None, :])[0] == pytest.approx(min(5.0, to_ball))

    def test_overlap_is_the_hyperplane_distance(self):
        assert delta_batch(OVERLAP_1D, [[-1.5], [0.5]]).tolist() == [1.5, 0.5]


class TestValidationAndIo:
    def test_family_validation(self):
        # the rules across fields of a family; each field's own range is a row of the meta table
        with pytest.raises(InputError, match="need c - s >= r"):
            MetaDistribution("hard_margin", 2, 1.0, 0.95, 0.1, 0.5, margin=0.2)
        with pytest.raises(InputError, match="gaussian_overlap needs center spread s > 0"):
            MetaDistribution("gaussian_overlap", 2, 1.0, 0.0, 0.1, 0.5)

    def test_config_roundtrip(self):
        assert MetaDistribution.from_config(HM.to_config()) == HM
        assert MetaDistribution.from_config(OVERLAP_1D.to_config()) == OVERLAP_1D

    def test_bag_json_roundtrip(self):
        bags = [sample_second_stage((np.array([0.0, 1.0]), 0.5), 4, s) for s in (1, 2)]
        labels = [1, -1]
        text = bags_to_json(bags, labels)
        loaded, labels2 = bags_from_json(text)
        assert labels2.tolist() == labels
        assert np.allclose(loaded[0].points, bags[0].points)

    def test_bad_dataset_rejected(self):
        with pytest.raises(InputError):
            bags_from_json("[]")
        with pytest.raises(InputError):
            bags_from_json("{not json")
        with pytest.raises(InputError):
            bags_from_json('[{"samples": [[0, 0]]}]')


def _valid_dataset():
    means = [np.array([2.0, 0.0]), np.array([-2.0, 0.0]), np.array([2.0, 0.5])]
    bags = [sample_second_stage((m, 0.5), 3, 40 + i) for i, m in enumerate(means)]
    return json.loads(bags_to_json(bags, [1, -1, 1]))


VALID_DATASET = _valid_dataset()
NOT_A_LABEL = (st.integers() | st.floats() | st.booleans() | st.text() | st.none() | st.lists(st.integers(), max_size=2)).filter(
    lambda v: isinstance(v, bool) or v not in (-1, 1)
)
NOT_A_NUMBER = st.text() | st.none() | st.booleans() | st.lists(st.floats(), max_size=2) | st.just({"x": 1.0})


@st.composite
def corrupted_datasets(draw):
    """A copy of VALID_DATASET with one label or shape corruption bags_from_json must reject. A
    missing field is left to the generated fuzz of tests/test_config.py."""
    data = copy.deepcopy(VALID_DATASET)
    rec = data[draw(st.integers(0, len(data) - 1))]
    kind = draw(st.sampled_from(["label", "record", "rank", "empty", "ragged", "dim", "entry"]))
    if kind == "label":
        rec["label"] = draw(NOT_A_LABEL)
    elif kind == "record":
        data[data.index(rec)] = draw(st.integers() | st.text() | st.lists(st.integers(), max_size=2))
    elif kind == "rank":
        rec["samples"] = draw(st.sampled_from([rec["samples"][0], [rec["samples"]], rec["samples"][0][0]]))
    elif kind == "empty":
        rec["samples"] = draw(st.sampled_from([[], [[]], [[] for _ in rec["samples"]]]))
    elif kind == "ragged":
        row = rec["samples"][draw(st.integers(0, len(rec["samples"]) - 1))]
        row.pop() if draw(st.booleans()) else row.append(0.0)
    elif kind == "dim":
        for row in rec["samples"]:
            row.pop()
    else:
        rec["samples"][draw(st.integers(0, len(rec["samples"]) - 1))][0] = draw(NOT_A_NUMBER)
    return json.dumps(data)


class TestDatasetJsonValidation:
    def test_valid_dataset_loads(self):
        bags, labels = bags_from_json(json.dumps(VALID_DATASET))
        assert labels.tolist() == [1, -1, 1] and all(b.points.shape == (3, 2) for b in bags)

    def test_integral_float_labels_load(self):
        data = copy.deepcopy(VALID_DATASET)
        for rec, label in zip(data, [1.0, -1.0, 1]):
            rec["label"] = label
        assert bags_from_json(json.dumps(data))[1].tolist() == [1, -1, 1]

    @settings(max_examples=300, deadline=None)
    @given(corrupted_datasets())
    def test_every_corruption_is_an_input_error(self, text):
        with pytest.raises(InputError):
            bags_from_json(text)
