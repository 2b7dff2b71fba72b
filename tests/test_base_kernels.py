import math

import numpy as np
import pytest

from tsk import BaseKernel, EmpiricalBatch, sup_norm
from tsk.errors import InputError
from tsk.kme import cross_inner, squared_norms


def point_masses(k, points):
    """Each point as a one-sample expansion of unit weight: their inner products are base-kernel values."""
    points = np.asarray(points, dtype=np.float64)
    return EmpiricalBatch(k, points, np.ones(len(points)), np.arange(len(points) + 1))


def test_zero_distance_identity():
    x = np.array([[0.3, -1.2, 4.0]])
    assert squared_norms(point_masses(BaseKernel(1.0, 3), x))[0] == 1.0


def test_gaussian_unit_distance():
    # exp(-||x-x'||^2 / w^2) at ||x-x'|| = 1, w = 1
    k = BaseKernel(1.0, 2)
    val = cross_inner(point_masses(k, [[0.0, 0.0]]), point_masses(k, [[1.0, 0.0]]))[0, 0]
    assert val == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_gaussian_scaled_distance():
    # ||x-x'||^2 / w^2 = 4/4 = 1 gives the same value
    k = BaseKernel(2.0, 1)
    val = cross_inner(point_masses(k, [[0.0]]), point_masses(k, [[2.0]]))[0, 0]
    assert val == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_sup_norm_is_one_for_both_families_any_width():
    for width in (0.1, 1.0, 17.0):
        assert sup_norm(BaseKernel(width, 4)) == 1.0


def test_symmetry_bit_exact():
    rng = np.random.default_rng(42)
    for i in range(100):
        d = int(rng.integers(1, 8))
        k = BaseKernel(float(rng.uniform(0.2, 3.0)), d)
        x, xp = point_masses(k, rng.normal(size=(1, d))), point_masses(k, rng.normal(size=(1, d)))
        assert cross_inner(x, xp)[0, 0] == cross_inner(xp, x)[0, 0]


@pytest.mark.parametrize("family", ["gaussian"])  # the one family a base_kernel config names
def test_gram_matrices_psd(family):
    rng = np.random.default_rng(7)
    k = BaseKernel.from_config({"family": family, "width": 1.0, "dim": 3})
    pts = point_masses(k, rng.normal(size=(20, 3)))
    gram = cross_inner(pts, pts)
    assert np.linalg.eigvalsh(gram)[0] >= -1e-8 * 20


@pytest.mark.parametrize("family", ["gaussian"])
def test_nonincreasing_along_rays(family):
    rng = np.random.default_rng(3)
    k = BaseKernel.from_config({"family": family, "width": 1.3, "dim": 4})
    for _ in range(20):
        x = rng.normal(size=4)
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        vals = cross_inner(point_masses(k, [x]), point_masses(k, [x + t * u for t in (0.0, 0.5, 1.0, 2.0)]))[0]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_high_dimension_path_matches_fsum():
    # cdist sums the 130 squared differences of each pair, as at every width
    rng = np.random.default_rng(11)
    d = 130
    k = BaseKernel(1.5, d)
    x, xp = rng.normal(size=d), rng.normal(size=d)
    expected = math.exp(-math.fsum((a - b) ** 2 for a, b in zip(x, xp)) / 1.5**2)
    a, b = point_masses(k, [x]), point_masses(k, [xp])
    assert cross_inner(a, b)[0, 0] == pytest.approx(expected, rel=1e-14)
    assert cross_inner(a, b)[0, 0] == cross_inner(b, a)[0, 0]


def test_input_validation():
    # the family, width and dim rules are rows of the base_kernel table, fuzzed by tests/test_config.py
    with pytest.raises(InputError):
        point_masses(BaseKernel(1.0, 2), np.zeros((1, 3)))


def test_config_roundtrip():
    k = BaseKernel(0.5, 3)
    assert k.to_config() == {"family": "gaussian", "width": 0.5, "dim": 3}
    assert BaseKernel.from_config(k.to_config()) == k
    with pytest.raises(InputError):
        BaseKernel.from_config({"family": "gaussian"})
