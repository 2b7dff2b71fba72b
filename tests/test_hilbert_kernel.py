import math

import numpy as np
import pytest

from tsk import (
    BaseKernel,
    EmpiricalBatch,
    HilbertKernel,
    SampleSet,
    embed,
    hk_eval,
    lipschitz_modulus,
)
from tsk.errors import InputError
from tsk.hilbert_kernel import HolderModulus
from tsk.kme import _squared_distances_into, cross_inner, exact_gaussian_embedding, squared_norms

from oracles import feature_distance

BASE = BaseKernel(1.0, 2)


def atom(p):
    return EmpiricalBatch(BASE, np.array([p]), np.array([1.0]), [0, 1])


def random_embeddings(rng, n):
    out = []
    for i in range(n):
        if i % 3 == 2:
            out.append(exact_gaussian_embedding(BASE, rng.normal(size=2), float(rng.uniform(0, 0.5))))
        else:
            out.append(embed(BASE, SampleSet(rng.normal(size=(int(rng.integers(1, 5)), 2)))))
    return out


class TestEval:
    def test_identical_arguments(self):
        hk = HilbertKernel(0.7)
        e = atom([0.2, -0.1])
        assert hk_eval(hk, e, e) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_composition(self):
        # ||mu_a - mu_b||^2 = 2 - 2 e^-1 for unit-separated atoms, then the
        # second-level gaussian at width 1
        hk = HilbertKernel(1.0)
        val = hk_eval(hk, atom([0.0, 0.0]), atom([1.0, 0.0]))
        assert val == pytest.approx(math.exp(-(2.0 - 2.0 * math.exp(-1.0))), abs=1e-12)

    def test_width_monotone_to_one(self):
        e1, e2 = atom([0.0, 0.0]), atom([1.0, 0.0])
        vals = [hk_eval(HilbertKernel(w), e1, e2) for w in (0.5, 1.0, 2.0, 8.0, 64.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-3)

    def test_gram_psd(self):
        rng = np.random.default_rng(13)
        embs = random_embeddings(rng, 20)
        hk = HilbertKernel(0.8)
        gram = np.array([[hk_eval(hk, a, b) for b in embs] for a in embs])
        assert np.linalg.eigvalsh(gram)[0] >= -1e-8 * 20


class TestFeatureDistance:
    def test_zero_at_identity(self):
        hk = HilbertKernel(1.0)
        e = atom([1.0, 1.0])
        assert feature_distance(hk, e, e) == 0.0

    def test_at_width_scale(self):
        # embedding distance equal to the width gives sqrt(2 - 2 e^-1)
        e1, e2 = atom([0.0, 0.0]), atom([1.0, 0.0])
        d2 = _squared_distances_into(cross_inner(e1, e2), squared_norms(e1), squared_norms(e2))[0, 0]
        hk = HilbertKernel(math.sqrt(d2))
        assert feature_distance(hk, e1, e2) == pytest.approx(
            math.sqrt(2.0 - 2.0 * math.exp(-1.0)), abs=1e-12
        )

    def test_bounded_by_sqrt_two(self):
        hk = HilbertKernel(0.05)
        rng = np.random.default_rng(2)
        for _ in range(30):
            e1, e2 = atom(rng.normal(size=2) * 5), atom(rng.normal(size=2) * 5)
            assert feature_distance(hk, e1, e2) <= math.sqrt(2.0) + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        hk = HilbertKernel(0.9)
        for _ in range(50):
            e1, e2, e3 = random_embeddings(rng, 3)
            d13 = feature_distance(hk, e1, e3)
            assert d13 <= feature_distance(hk, e1, e2) + feature_distance(hk, e2, e3) + 1e-9


class TestModulus:
    def test_gaussian_coefficients(self):
        m1 = lipschitz_modulus(HilbertKernel(1.0))
        assert m1.coefficient == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert m1.exponent == 1.0
        m2 = lipschitz_modulus(HilbertKernel(2.0))
        assert m2.coefficient == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_dominates_exact_modulus(self):
        # sqrt(2 - 2 exp(-s^2/w^2)) <= (sqrt(2)/w) s from 1 - e^-u <= u
        for width in (0.5, 1.0, 2.0):
            mod = lipschitz_modulus(HilbertKernel(width))
            for s in (0.01, 0.1, 1.0, 10.0):
                exact = math.sqrt(2.0 - 2.0 * math.exp(-(s**2) / width**2))
                assert exact <= mod(s) + 1e-15

    def test_dominates_feature_distance_on_random_pairs(self):
        rng = np.random.default_rng(8)
        hk = HilbertKernel(0.7)
        mod = lipschitz_modulus(hk)
        for _ in range(100):
            e1, e2 = random_embeddings(rng, 2)
            d2 = _squared_distances_into(cross_inner(e1, e2), squared_norms(e1), squared_norms(e2))[0, 0]
            assert feature_distance(hk, e1, e2) <= mod(math.sqrt(d2)) + 1e-12

    def test_modulus_validation(self):
        with pytest.raises(InputError):
            HolderModulus(1.0, 0.0)
        with pytest.raises(InputError):
            HolderModulus(1.0, 2.5)
        with pytest.raises(InputError):
            HolderModulus(-1.0, 1.0)
        mod = HolderModulus(2.0, 1.0)
        assert mod(0.0) == 0.0
        assert mod(0.5) < mod(1.0)
        with pytest.raises(InputError, match="modulus argument must be >= 0"):
            mod(-1.0)


def test_kernel_validation():
    # a config's width is a row of the hilbert_kernel table; a width the program derives passes the same converter
    hk = HilbertKernel(0.4)
    assert hk.to_config() == {"family": "gaussian", "width": 0.4}
    assert HilbertKernel.from_config(hk.to_config()) == hk
    assert hk.with_width(2.0**-511) == HilbertKernel(2.0**-511)
    for width in (0.0, 1e-200, 2.0**512, math.inf, None):
        with pytest.raises(InputError, match="second-level kernel width must"):
            hk.with_width(width)
