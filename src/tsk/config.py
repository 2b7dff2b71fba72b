"""The JSON input formats: one table per config command, section, model or dataset file, read once at the boundary.

A table maps each field of a JSON object to a row (converter, default); the
converter checks the value and names the field by its path, a `Section`
converter reads a nested object and `config_records` a list of them. A `config_choice`
whose options map to field names is a tag: it admits those fields only when it selects them.
"""

from functools import partial
from itertools import chain

import numpy as np

from .base_kernels import GAUSSIAN, BaseKernel
from .errors import InputError, config_float, config_floats, config_int, config_ints, shown
from .hilbert_kernel import HilbertKernel
from .kme import EmpiricalBatch, SampleSet, uniform_weights
from .svm import SvmModel
from .synth import GAUSSIAN_OVERLAP, HARD_MARGIN, MetaDistribution
from .whitenoise import CovarianceOperator

REQUIRED = object()  # the default of a field the input must give


class Section(dict):
    """A table, `build`, which makes the object's value from the values read (a dict by default), and the input's name."""

    def __init__(self, rows: dict, build=dict, name: str = "the config"):
        super().__init__(rows)
        self.build, self.name = build, name


def config_choice(value, field: str, options) -> str:
    """One of the named options, as a string."""
    if not isinstance(value, str) or value not in options:
        raise InputError(f"{field} must be one of {', '.join(map(repr, options))}, got {shown(value)}")
    return value


def config_size_or_exact(value, field: str):
    """"exact" (closed-form embeddings) or a bag size >= 1."""
    return value if value == "exact" else config_int(value, field, minimum=1)


def config_bool(value, field: str) -> bool:
    """true or false."""
    if not isinstance(value, bool):
        raise InputError(f"{field} must be true or false, got {shown(value)}")
    return value


def config_label(value, field: str) -> int:
    """A class label, -1 or +1: an integral float such as 1.0 is read as 1, a boolean is refused."""
    if isinstance(value, bool) or value not in (-1, 1):
        raise InputError(f"{field} must be -1 or +1, got {shown(value)}")
    return int(value)


def config_labels(values, field: str) -> tuple:
    """A JSON list of class labels, each checked by `config_label`."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"{field} must be a list of -1 and +1, got {shown(values)}")
    return tuple(config_label(v, field) for v in values)


def config_samples(value, field: str) -> np.ndarray:
    """A bag's samples as a float64 (M, d) array: a nonempty JSON matrix of finite numbers, no
    booleans among them, its rows of one width. The bag is checked as one numpy array."""
    try:
        points = np.asarray(value)
    except ValueError:  # rows of different lengths
        points = np.asarray(None)
    numbers = points.ndim == 2 and points.size and points.dtype.kind in "iuf" and bool not in map(type, chain.from_iterable(value))
    if not numbers or not np.isfinite(points).all():
        raise InputError(f"{field} must be a nonempty matrix of finite numbers, its rows of one width")
    return points.astype(np.float64, copy=False)


def config_records(values, field: str, table):
    """A nonempty JSON list of objects, record i read by `table` as field[i]."""
    if not isinstance(values, list) or not values:
        raise InputError(f"{field} must be a nonempty list of objects, got {shown(values)}")
    return [read(table, record, f"{field}[{i}]") for i, record in enumerate(values)]


def _one_of(options):
    return partial(config_choice, options=options)


def _same_dim(meta, base_kernel, **values) -> dict:
    """The values read; a config that embeds the meta-distribution's inputs needs one dimension for both."""
    if meta.dim != base_kernel.dim:
        raise InputError(f"meta.dim must equal base_kernel.dim: meta dim {meta.dim} does not match base_kernel dim {base_kernel.dim}")
    return values | {"meta": meta, "base_kernel": base_kernel}


def _rates(n_grid, **values) -> dict:
    """The values read, the N grid strictly increasing, checked by `_same_dim`."""
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise InputError(f"n_grid must be a strictly increasing list, got {shown(list(n_grid))}")
    return _same_dim(n_grid=n_grid, **values)


def _noise_exponent(meta, covariance, t_grid, **values) -> dict:
    """The values read, a covariance on meta.dim eigenvalues, and a t grid of at least 3 points,
    the fewest a power law is fitted to."""
    if covariance.dim != meta.dim:
        raise InputError(f"covariance.eigenvalues must hold meta.dim = {meta.dim} numbers, got {covariance.dim}")
    if len(t_grid) < 3:
        raise InputError(f"t_grid must hold at least 3 points, got {len(t_grid)}")
    return values | {"meta": meta, "covariance": covariance, "t_grid": t_grid}


def _kme_coverage(base_kernel, mean, **values) -> dict:
    """The values read; a mean, when given, is a point of the base kernel's space."""
    if mean is not None and len(mean) != base_kernel.dim:
        raise InputError(f"mean must hold base_kernel.dim = {base_kernel.dim} numbers, got {len(mean)}")
    return values | {"base_kernel": base_kernel, "mean": mean}


def _model(lam, support, base_kernel, hilbert_kernel, dual_coefs, labels, clip_bound, converged, kkt_residual, norm_sq) -> SvmModel:
    """The model of a model file: one coefficient and one label per support bag, every bag of the
    base kernel's dimension and embedded with the uniform weights 1/m."""
    n, dim = len(support), base_kernel.dim
    for key, values in (("dual_coefs", dual_coefs), ("labels", labels)):
        if len(values) != n:
            raise InputError(f"{key} must hold one value per support record ({n}), got {len(values)}")
    points = [record["samples"] for record in support]
    for i, bag in enumerate(points):
        if bag.shape[1] != dim:
            raise InputError(f"support[{i}].samples must have base_kernel.dim = {dim} columns, got {bag.shape[1]}")
    weights = np.concatenate([uniform_weights(len(bag)) for bag in points])
    batch = EmpiricalBatch(base_kernel, np.concatenate(points), weights, np.cumsum([0] + [len(bag) for bag in points]))
    return SvmModel(
        dual_coefs=np.array(dual_coefs), labels=np.array(labels, dtype=np.float64), lam=lam, box_c=1.0 / (2.0 * lam * n), clip_bound=clip_bound,
        converged=converged, kkt=kkt_residual, sweeps=0, objective=0.0, norm_sq=norm_sq, support=batch, hkernel=hilbert_kernel,
    )


def _dataset(bags):
    """The bags as sample sets, and their labels; every bag has the width of bags[0]."""
    for i, bag in enumerate(bags):
        if bag["samples"].shape[1] != bags[0]["samples"].shape[1]:
            raise InputError(f"bags[{i}].samples must have the columns of bags[0].samples, got {bag['samples'].shape[1]}")
    return [SampleSet(bag["samples"]) for bag in bags], np.array([bag["label"] for bag in bags])


REAL = (config_float, REQUIRED)
SIZE, SEED = partial(config_int, minimum=1), partial(config_int, minimum=0)
POSITIVE, NONNEGATIVE = partial(config_float, above=0.0), partial(config_float, minimum=0.0)
BASE_KERNEL = Section({"family": (_one_of((GAUSSIAN,)), REQUIRED), "width": (POSITIVE, REQUIRED), "dim": (SIZE, REQUIRED)}, BaseKernel)
HILBERT_KERNEL = Section({"family": (_one_of((GAUSSIAN,)), REQUIRED), "width": (POSITIVE, REQUIRED)}, HilbertKernel)
# the family of a meta-distribution, the kind of a schedule and the model of an approximation error, each with the fields it admits
META = Section({
    "family": (_one_of({HARD_MARGIN: ("r",), GAUSSIAN_OVERLAP: ()}), REQUIRED), "dim": (SIZE, REQUIRED),
    "c": (POSITIVE, REQUIRED), "s": (NONNEGATIVE, REQUIRED), "sigma": (NONNEGATIVE, REQUIRED),
    "p_plus": (partial(config_float, minimum=0.0, maximum=1.0), REQUIRED), "r": (POSITIVE, REQUIRED),
}, lambda family, dim, c, s, sigma, p_plus, r=0.0: MetaDistribution(family, dim, c, s, sigma, p_plus, r))
SCHEDULE = Section({
    "kind": (_one_of({"thm45": ("beta",), "thm55": ("mu",)}), REQUIRED), "alpha": (partial(config_float, above=0.0, maximum=2.0), REQUIRED),
    "beta": (partial(config_float, above=0.0, maximum=1.0), REQUIRED), "mu": (POSITIVE, REQUIRED),
})
APPROX_ERROR = Section({
    "model": (_one_of({"zero": (), "constant": ("value",), "power": ("c", "beta")}), "zero"),
    "value": (NONNEGATIVE, REQUIRED), "c": (NONNEGATIVE, REQUIRED), "beta": REAL,
})
COVARIANCE = Section({"eigenvalues": (partial(config_floats, above=0.0), REQUIRED)}, lambda eigenvalues: CovarianceOperator(np.asarray(eigenvalues), np.eye(len(eigenvalues))))

COMMANDS = {
    "rates": Section({
        "meta": (META, REQUIRED), "base_kernel": (BASE_KERNEL, REQUIRED), "hilbert_kernel": (HILBERT_KERNEL, REQUIRED),
        "schedule": (SCHEDULE, REQUIRED), "approx_error": (APPROX_ERROR, {"model": "zero"}),
        "n_grid": (partial(config_ints, minimum=2), REQUIRED), "replicates": (SIZE, REQUIRED), "test_bags": (SIZE, REQUIRED), "bayes_mc": (SIZE, 100_000),
        "test_embedding": (config_size_or_exact, "exact"), "train_embedding": (_one_of(("empirical", "exact")), "empirical"),
        "seed": (SEED, REQUIRED), "universal_c": (POSITIVE, 100.0), "tau": (partial(config_float, minimum=1.0), 1.0),
    }, _rates),
    "approx-error": Section({
        "meta": (META, REQUIRED), "hilbert_kernel": (HILBERT_KERNEL, REQUIRED), "base_kernel": (BASE_KERNEL, REQUIRED),
        "lambda_grid": (partial(config_floats, above=0.0), REQUIRED), "big_n": (partial(config_int, minimum=2), REQUIRED), "test_n": (SIZE, None),
        "embedding": (config_size_or_exact, "exact"), "seeds": (partial(config_ints, minimum=0), (0,)),
    }, _same_dim),
    "noise-exponent": Section({
        "meta": (META, REQUIRED), "covariance": (COVARIANCE, REQUIRED), "t_grid": (partial(config_floats, above=0.0), REQUIRED),
        "n_outer": (SIZE, REQUIRED), "n_inner": (SIZE, REQUIRED), "seed": (SEED, REQUIRED), "floor": (POSITIVE, 1e-12),
    }, _noise_exponent),
    "kme-coverage": Section({
        "base_kernel": (BASE_KERNEL, REQUIRED), "sigma": (NONNEGATIVE, REQUIRED), "mean": (config_floats, None),
        "deltas": (partial(config_floats, above=0.0, below=1.0), REQUIRED), "bag_sizes": (partial(config_ints, minimum=1), REQUIRED),
        "trials": (SIZE, REQUIRED), "seed": (SEED, 0),
    }, _kme_coverage),
    "train": Section({
        "base_kernel": (BASE_KERNEL, REQUIRED), "hilbert_kernel": (HILBERT_KERNEL, REQUIRED),
        "lambda": (POSITIVE, REQUIRED), "tol": (POSITIVE, 1e-8), "max_sweeps": (SIZE, 10_000),
    }),
}

# the model file (`svm.model_to_json`) and the dataset file, the JSON array `bags` (`synth.bags_to_json`)
SUPPORT_BAG = Section({"samples": (config_samples, REQUIRED)})
BAG = Section({"label": (config_label, REQUIRED), "samples": (config_samples, REQUIRED)})
FILES = {
    "model": Section({
        "lambda": (POSITIVE, REQUIRED), "clip_bound": (POSITIVE, REQUIRED), "dual_coefs": (partial(config_floats, minimum=0.0), REQUIRED),
        "labels": (config_labels, REQUIRED), "base_kernel": (BASE_KERNEL, REQUIRED), "hilbert_kernel": (HILBERT_KERNEL, REQUIRED),
        "converged": (config_bool, REQUIRED), "kkt_residual": (NONNEGATIVE, REQUIRED), "norm_sq": REAL,
        "support": (partial(config_records, table=SUPPORT_BAG), REQUIRED),
    }, lambda **values: _model(values.pop("lambda"), **values), "the model"),
    "dataset": Section({"bags": (partial(config_records, table=BAG), REQUIRED)}, _dataset),
}


def read(table: Section, cfg, path: str = ""):
    """The value of the JSON object `cfg` under `table`. A field of the wrong
    type or out of range, a missing field or an unknown key raise InputError
    naming the field's path under `path`."""
    if not isinstance(cfg, dict):
        raise InputError(f"{path or table.name} must be a JSON object, got {shown(cfg)}")
    dotted = (lambda key: f"{path}.{key}") if path else str
    values, dropped = {}, set()
    for key, (convert, default) in table.items():
        if key in dropped:
            continue
        if key in cfg:
            values[key] = read(convert, cfg[key], dotted(key)) if isinstance(convert, Section) else convert(cfg[key], dotted(key))
        elif default is REQUIRED:
            raise InputError(f"missing field {dotted(key)}")
        else:
            values[key] = default
        tag = getattr(convert, "keywords", {}).get("options")
        if isinstance(tag, dict):  # the fields of the kinds not selected are not fields here
            dropped.update(field for kind, fields in tag.items() if kind != values[key] for field in fields)
    unknown = sorted(set(cfg) - set(values))
    if unknown:
        raise InputError(f"unknown field {', '.join(map(dotted, unknown))}; {path or table.name} takes {', '.join(values)}")
    return table.build(**values)
