"""The single inner-product path behind every Gram, decision value and distance.

Inputs are exact or empirical batches, or the mixed pair of an empirical
support with exact decision targets, under the gaussian second-level
kernel; the oracle recomputes every value from brute-force pair sums and the
written-out closed form.
"""

import math

import numpy as np
import pytest

from tsk import BaseKernel, HilbertKernel, SampleSet, embed_bags
from tsk import _backend
from tsk.kme import EmpiricalBatch, ExactBatch, _squared_distances_into, cross_inner, squared_norms
from tsk.svm import SvmModel, build_gram, decision_value, decision_values, train

from oracles import brute_pair_sum

BASE = BaseKernel(1.0, 2)
KINDS = ("exact", "empirical", "mixed")
# "mixed" trains on empirical embeddings and decides on exact ones, the mixed
# pair of a rate sweep with empirical training bags and exact test inputs
SUPPORT_KIND = {"exact": "exact", "empirical": "empirical", "mixed": "empirical"}
TARGET_KIND = {"exact": "exact", "empirical": "empirical", "mixed": "exact"}
HKERNELS = (HilbertKernel(1.0),)


def make_embeddings(kind, n, seed):
    """A batch of n exact or empirical embeddings around (+-1.5, 0), labels alternating +1, -1."""
    rng = np.random.default_rng(seed)
    means, spreads, bags, labels = [], [], [], []
    for i in range(n):
        y = 1.0 if i % 2 == 0 else -1.0
        center = np.array([1.5 * y, 0.0]) + 0.3 * rng.normal(size=2)
        if kind == "exact":
            means.append(center)
            spreads.append(float(rng.uniform(0.0, 0.5)))
        else:
            bags.append(SampleSet(center + 0.4 * rng.normal(size=(int(rng.integers(1, 6)), 2))))
        labels.append(y)
    batch = ExactBatch(BASE, means, spreads) if kind == "exact" else embed_bags(BASE, bags)
    return batch, np.array(labels)


def singles(batch):
    """Each embedding of the batch as a batch of one."""
    return [batch.take([i]) for i in range(len(batch))]


def _atoms(e):
    if isinstance(e, EmpiricalBatch):
        return [(w, p, 0.0) for w, p in zip(e.weights, e.points)]
    return [(1.0, e.means[0], e.spreads[0])]


def oracle_inner(e1, e2):
    if isinstance(e1, EmpiricalBatch) and isinstance(e2, EmpiricalBatch):
        return brute_pair_sum(e1.points, e1.weights, e2.points, e2.weights, BASE.width)
    # closed form (g / v)^(d/2) exp(-|m - m'|^2 / v), v = g + 2 s^2 + 2 s'^2, per pair of atoms
    g = BASE.width**2
    terms = []
    for w1, m1, s1 in _atoms(e1):
        for w2, m2, s2 in _atoms(e2):
            v = g + 2.0 * s1 * s1 + 2.0 * s2 * s2
            d2 = math.fsum((a - b) ** 2 for a, b in zip(m1, m2))
            terms.append(w1 * w2 * (g / v) ** (BASE.dim / 2.0) * math.exp(-d2 / v))
    return math.fsum(terms)


def oracle_kernel(hk, e1, e2):
    d2 = oracle_inner(e1, e1) + oracle_inner(e2, e2) - 2.0 * oracle_inner(e1, e2)
    return math.exp(-d2 / hk.width**2)


def oracle_decision(model, e):
    coef = model.dual_coefs * model.labels
    return math.fsum(c * oracle_kernel(model.hkernel, s, e) for c, s in zip(coef, singles(model.support)))


@pytest.mark.parametrize("hk", HKERNELS, ids=lambda hk: hk.to_config()["family"])
@pytest.mark.parametrize("kind", KINDS)
class TestSinglePath:
    def fit(self, kind, hk):
        embs, labels = make_embeddings(SUPPORT_KIND[kind], 12, seed=3)
        gram = build_gram(hk, embs)
        return embs, gram, train(gram, labels, 0.1, support=embs, hkernel=hk)

    def test_gram_symmetric_with_exact_diagonal(self, kind, hk):
        embs, gram, _ = self.fit(kind, hk)
        assert np.array_equal(gram.entries, gram.entries.T)
        assert np.all(np.diag(gram.entries) == 1.0)
        norms = squared_norms(embs)
        assert np.all(np.diag(_squared_distances_into(cross_inner(embs, embs), norms, norms)) == 0.0)

    def test_training_decisions_match_gram(self, kind, hk):
        embs, gram, model = self.fit(kind, hk)
        want = gram.entries @ (model.dual_coefs * model.labels)
        np.testing.assert_allclose(decision_values(model, embs), want, rtol=1e-12)

    def test_decisions_match_oracle(self, kind, hk):
        _, _, model = self.fit(kind, hk)
        targets, _ = make_embeddings(TARGET_KIND[kind], 6, seed=8)
        want = [oracle_decision(model, e) for e in singles(targets)]
        np.testing.assert_allclose(decision_values(model, targets), want, rtol=1e-12)
        for e, w in zip(singles(targets), want):
            assert decision_value(model, e) == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("hk", HKERNELS, ids=lambda hk: hk.to_config()["family"])
def test_pair_sums_per_decision_batch(monkeypatch, hk):
    # kernel evaluations of k support norms, t target norms and k * t cross terms, each computed once
    support, labels = make_embeddings("empirical", 7, seed=5)
    targets, _ = make_embeddings("empirical", 5, seed=6)
    alpha = np.array([0.3, 0.0, 0.2, 0.0, 0.0, 0.1, 0.4])
    model = SvmModel(alpha, labels, 0.1, 1.0, 1.0, True, 0.0, 0, 0.0, 0.0, support=support, hkernel=hk)
    evals = []
    real = _backend.pair_sums

    def counting(X, wx, Y, *args, **kwargs):
        evals.append(len(X) * len(Y))
        return real(X, wx, Y, *args, **kwargs)

    monkeypatch.setattr(_backend, "pair_sums", counting)
    decision_values(model, targets)
    ms = np.diff(support.offsets)[np.flatnonzero(alpha)]
    mt = np.diff(targets.offsets)
    assert sum(evals) == sum(m * m for m in ms) + sum(m * m for m in mt) + sum(ms) * sum(mt)


SIZES = (1, 2, 3, 7, 13, 31, 60, 50, 1, 44)


def weighted_bags(sizes, seed):
    """A batch of empirical embeddings of the given sizes with positive, unequal weights."""
    rng = np.random.default_rng(seed)
    points, weights = zip(*[(rng.normal(size=(m, 2)), rng.uniform(0.1, 1.0, size=m)) for m in sizes])
    return EmpiricalBatch(BASE, np.concatenate(points), np.concatenate(weights), np.cumsum((0,) + sizes))


def test_gram_entries_equal_single_pair_calls():
    embs = weighted_bags(SIZES, seed=11)
    gram = cross_inner(embs, embs)
    for i in range(len(embs)):
        for j in range(i, len(embs)):
            assert gram[i, j] == gram[j, i] == cross_inner(embs.take([i]), embs.take([j]))[0, 0]
    assert np.array_equal(np.diag(gram), squared_norms(embs))
    assert np.all(np.diag(build_gram(HilbertKernel(1.0), embs).entries) == 1.0)
    assert np.all(np.diag(_squared_distances_into(gram, squared_norms(embs), squared_norms(embs))) == 0.0)


def test_cross_entries_independent_of_the_batch():
    a, b = weighted_bags(SIZES[:4], seed=12), weighted_bags(SIZES, seed=13)
    full = cross_inner(a, b)
    for i in range(len(a)):
        for j in range(len(b)):
            assert full[i, j] == cross_inner(a.take([i]), b.take([j]))[0, 0]
    cols = np.arange(len(b))
    assert np.array_equal(cross_inner(a, b.take(cols[::-1])), full[:, ::-1])
    assert np.array_equal(cross_inner(a, b.take(cols[1::3])), full[:, 1::3])
