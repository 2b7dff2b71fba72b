"""Each per-example rule has one vectorized implementation; its scalar view
must equal the matching element of the batch call bit for bit, and return a
float."""

import numpy as np
import pytest

from tsk import BaseKernel, HilbertKernel, hk_eval
from tsk._backend import pair_sum, pair_sums
from tsk.errors import InputError
from tsk.hilbert_kernel import _hk_into
from tsk.kme import EmpiricalBatch, ExactBatch, cross_inner, squared_norms
from tsk.svm import clip, hinge, sgn, zero_one

RNG = np.random.default_rng(17)
T = np.concatenate([[-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], RNG.normal(scale=1.5, size=10)])
Y = np.where(RNG.random(T.size) < 0.5, -1, 1)


def _hk_eval_case():
    rng, base, hk = np.random.default_rng(3), BaseKernel("gaussian", 0.9, 2), HilbertKernel("gaussian", 0.8)
    a = ExactBatch(base, rng.normal(size=(4, 2)), rng.uniform(0.0, 0.5, size=4))
    b = EmpiricalBatch(base, rng.normal(size=(6, 2)), rng.uniform(0.1, 1.0, size=6), np.cumsum([0, 1, 3, 2]))
    batch = _hk_into(hk, cross_inner(a, b), squared_norms(a), squared_norms(b)).ravel()
    return (lambda i: hk_eval(hk, a.take([i // len(b)]), b.take([i % len(b)]))), batch


def _pair_sum_case(dim):
    rng = np.random.default_rng(dim)
    x, ys = rng.normal(size=dim), rng.normal(size=(7, dim))
    row = pair_sums(x[None, :], [1.0], ys, np.ones(len(ys)), np.arange(len(ys) + 1), 1.3)
    return (lambda i: pair_sum(x[None, :], [1.0], ys[i][None, :], [1.0], 1.3)), row


CASES = {
    "hinge": lambda: ((lambda i: hinge(Y[i], T[i])), hinge(Y, T)),
    "zero_one": lambda: ((lambda i: zero_one(Y[i], T[i])), zero_one(Y, T)),
    "clip": lambda: ((lambda i: clip(T[i], 0.7)), clip(T, 0.7)),
    "sgn": lambda: ((lambda i: sgn(T[i])), sgn(T)),
    "hk_eval": _hk_eval_case,
    "pair_sum gaussian": lambda: _pair_sum_case(3),
    "pair_sum gaussian d = 130": lambda: _pair_sum_case(130),
}


@pytest.mark.parametrize("name", CASES)
def test_scalar_view_equals_its_batch_element(name):
    scalar, batch = CASES[name]()
    assert batch.ndim == 1 and batch.size > 1
    for i, want in enumerate(batch):
        got = scalar(i)
        assert type(got) is float and np.float64(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [0, 2, "1"])
@pytest.mark.parametrize("rule", [hinge, zero_one])
def test_labels_other_than_plus_minus_one_are_rejected(rule, bad):
    with pytest.raises(InputError, match="labels must be -1 or"):
        rule(bad, 0.5)
    with pytest.raises(InputError, match="labels must be -1 or"):
        rule([1, bad, -1], np.array([0.5, 0.5, 0.5]))
