"""The JSON input formats: one table per config command, section, model or dataset file, read once at the boundary.

A table maps each field of a JSON object to a row (converter, default); the
converter checks the value and names the field by its path, a `Section`
converter reads a nested object and `config_records` a list of them. A row keyed
by a tuple holds alternatives, of which at most one may be given. A `config_choice`
whose options map to field names is a tag: it admits those fields only when it selects them.
"""

from functools import partial
from itertools import chain

import numpy as np

from .base_kernels import FAMILY_CODES, BaseKernel
from .errors import InputError, config_float, config_floats, config_int, config_ints
from .hilbert_kernel import H_GAUSSIAN, H_LINEAR, HilbertKernel
from .kme import EmpiricalBatch, ExactBatch, SampleSet, uniform_weights
from .rng import normals, stream
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
        raise InputError(f"{field} must be one of {', '.join(map(repr, options))}, got {value!r}")
    return value


def config_size_or_exact(value, field: str):
    """"exact" (closed-form embeddings) or a bag size >= 1."""
    return value if value == "exact" else config_int(value, field, minimum=1)


def config_rows(values, field: str):
    """Rows of numbers, each checked by `config_floats`; the shape is checked where the matrix is built."""
    return [config_floats(row, field) for row in values] if isinstance(values, list) else values


def config_bool(value, field: str) -> bool:
    """true or false."""
    if not isinstance(value, bool):
        raise InputError(f"{field} must be true or false, got {value!r}")
    return value


def config_label(value, field: str) -> int:
    """A class label, -1 or +1: an integral float such as 1.0 is read as 1, a boolean is refused."""
    if isinstance(value, bool) or value not in (-1, 1):
        raise InputError(f"{field} must be -1 or +1, got {value!r}")
    return int(value)


def config_labels(values, field: str) -> tuple:
    """A JSON list of class labels, each checked by `config_label`."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"{field} must be a list of -1 and +1, got {values!r}")
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
    """A nonempty JSON list of objects, record i read by `table` as field[i]. A tuple of tables holds
    the kinds of record, one kind per list: the first whose first field record 0 gives, else the first."""
    if not isinstance(values, list) or not values:
        raise InputError(f"{field} must be a nonempty list of objects, got {values!r}")
    if isinstance(table, tuple):
        table = next((kind for kind in table if isinstance(values[0], dict) and next(iter(kind)) in values[0]), table[0])
    return [read(table, record, f"{field}[{i}]") for i, record in enumerate(values)]


def _covariance(eigenvalues, eigenvectors, rotation_seed) -> CovarianceOperator:
    """The spectrum in the given eigenvectors, else in a rotation drawn from `rotation_seed`, else in the axes."""
    d = len(eigenvalues)
    if eigenvectors is not None and (not isinstance(eigenvectors, list) or [len(row) for row in eigenvectors] != [d] * d):
        raise InputError(f"covariance.eigenvectors must be a list of {d} rows of {d} numbers, got {eigenvectors!r}")
    if eigenvectors is None:
        eigenvectors = np.eye(d) if rotation_seed is None else np.linalg.qr(normals(stream(rotation_seed, "covariance-rotation"), (d, d)))[0]
    return CovarianceOperator(np.asarray(eigenvalues), np.asarray(eigenvectors))


def _one_of(options):
    return partial(config_choice, options=options)


def _same_dim(meta, base_kernel, **values) -> dict:
    """The values read; a config that embeds the meta-distribution's inputs needs one dimension for both."""
    if base_kernel is not None and meta.dim != base_kernel.dim:
        raise InputError(f"meta.dim must equal base_kernel.dim: meta dim {meta.dim} does not match base_kernel dim {base_kernel.dim}")
    return values | {"meta": meta, "base_kernel": base_kernel}


def _model(lam, support, base_kernel, hilbert_kernel, dual_coefs, labels, clip_bound, converged, kkt_residual, norm_sq) -> SvmModel:
    """The model of a model file: one coefficient and one label per support record, every record of
    the base kernel's dimension, and a bag's weights, when given, one per sample (else 1/m)."""
    n, dim = len(support), base_kernel.dim
    for key, values in (("dual_coefs", dual_coefs), ("labels", labels)):
        if len(values) != n:
            raise InputError(f"{key} must hold one value per support record ({n}), got {len(values)}")
    key = "samples" if "samples" in support[0] else "mean"
    for i, record in enumerate(support):
        if np.shape(record[key])[-1] != dim:
            raise InputError(f"support[{i}].{key} must have base_kernel.dim = {dim} columns, got {np.shape(record[key])[-1]}")
        if record.get("weights") is not None and len(record["weights"]) != len(record["samples"]):
            raise InputError(f"support[{i}].weights must hold one number per sample ({len(record['samples'])}), got {len(record['weights'])}")
    if key == "mean":
        batch = ExactBatch(base_kernel, [r["mean"] for r in support], [r["spread"] for r in support])
    else:
        points = [r["samples"] for r in support]
        weights = [uniform_weights(len(p)) if r["weights"] is None else np.array(r["weights"]) for p, r in zip(points, support)]
        batch = EmpiricalBatch(base_kernel, np.concatenate(points), np.concatenate(weights), np.cumsum([0] + [len(p) for p in points]))
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
BASE_KERNEL = Section({"family": (_one_of(tuple(FAMILY_CODES)), REQUIRED), "width": REAL, "dim": (SIZE, REQUIRED)}, BaseKernel)
HILBERT_KERNEL = Section({"family": (_one_of((H_GAUSSIAN, H_LINEAR)), REQUIRED), "width": (config_float, None)}, HilbertKernel)
META = Section({
    "family": (_one_of((HARD_MARGIN, GAUSSIAN_OVERLAP)), REQUIRED), "dim": (SIZE, REQUIRED),
    "c": REAL, "s": REAL, "sigma": REAL, "p_plus": REAL, "r": (config_float, 0.0),
}, lambda family, dim, c, s, sigma, p_plus, r: MetaDistribution(family, dim, c, s, sigma, p_plus, r))
# the kind of a schedule, and the model of an approximation error, each with the fields it admits
SCHEDULE = Section({
    "kind": (_one_of({"thm45": ("beta",), "thm55": ("mu",)}), REQUIRED), "alpha": REAL, "beta": REAL, "mu": REAL,
})
APPROX_ERROR = Section({
    "model": (_one_of({"zero": (), "constant": ("value",), "power": ("c", "beta")}), "zero"),
    "value": (NONNEGATIVE, REQUIRED), "c": (NONNEGATIVE, REQUIRED), "beta": REAL,
})
COVARIANCE = Section({"eigenvalues": (config_floats, REQUIRED), ("eigenvectors", "rotation_seed"): ((config_rows, SEED), None)}, _covariance)

COMMANDS = {
    "rates": Section({
        "meta": (META, REQUIRED), "base_kernel": (BASE_KERNEL, REQUIRED), "hilbert_kernel": (HILBERT_KERNEL, REQUIRED),
        "schedule": (SCHEDULE, REQUIRED), "approx_error": (APPROX_ERROR, {"model": "zero"}),
        "n_grid": (config_ints, REQUIRED), "replicates": (SIZE, REQUIRED), "test_bags": (SIZE, REQUIRED), "bayes_mc": (SIZE, 100_000),
        "test_embedding": (config_size_or_exact, "exact"), "train_embedding": (_one_of(("empirical", "exact")), "empirical"),
        "seed": (SEED, REQUIRED), "universal_c": (POSITIVE, 100.0), "tau": (partial(config_float, minimum=1.0), 1.0),
        "row_time_cap_s": (POSITIVE, 300.0),
    }, _same_dim),
    "approx-error": Section({
        "meta": (META, REQUIRED), "hilbert_kernel": (HILBERT_KERNEL, REQUIRED), "base_kernel": (BASE_KERNEL, None),
        "lambda_grid": (partial(config_floats, above=0.0), REQUIRED), "big_n": (config_int, REQUIRED), "test_n": (config_int, None),
        "embedding": (config_size_or_exact, "exact"), "input_space": (_one_of(("kme", "mean")), "kme"),
        ("seeds", "seed"): ((partial(config_ints, minimum=0), SEED), (0,)),
    }, _same_dim),
    "noise-exponent": Section({
        "meta": (META, REQUIRED), "covariance": (COVARIANCE, REQUIRED), "t_grid": (config_floats, REQUIRED),
        "n_outer": (config_int, REQUIRED), "n_inner": (config_int, REQUIRED), "seed": (SEED, REQUIRED), "floor": (config_float, 1e-12),
    }),
    "kme-coverage": Section({
        "base_kernel": (BASE_KERNEL, REQUIRED), "sigma": REAL, "mean": (config_floats, None), "deltas": (partial(config_floats, above=0.0, below=1.0), REQUIRED),
        "bag_sizes": (partial(config_ints, minimum=1), REQUIRED), "trials": (SIZE, REQUIRED), "seed": (SEED, 0),
    }),
    "train": Section({
        "base_kernel": (BASE_KERNEL, REQUIRED), "hilbert_kernel": (HILBERT_KERNEL, REQUIRED),
        "lambda": (POSITIVE, REQUIRED), "tol": (POSITIVE, 1e-8), "max_sweeps": (SIZE, 10_000),
    }),
}

# the model file (`svm.model_to_json`) and the dataset file, the JSON array `bags` (`synth.bags_to_json`)
SUPPORT_BAG = Section({"samples": (config_samples, REQUIRED), "weights": (config_floats, None)})
SUPPORT_MEAN = Section({"mean": (config_floats, REQUIRED), "spread": (NONNEGATIVE, REQUIRED)})
BAG = Section({"label": (config_label, REQUIRED), "samples": (config_samples, REQUIRED)})
FILES = {
    "model": Section({
        "lambda": (POSITIVE, REQUIRED), "clip_bound": (POSITIVE, REQUIRED), "dual_coefs": (partial(config_floats, minimum=0.0), REQUIRED),
        "labels": (config_labels, REQUIRED), "base_kernel": (BASE_KERNEL, REQUIRED), "hilbert_kernel": (HILBERT_KERNEL, REQUIRED),
        "converged": (config_bool, REQUIRED), "kkt_residual": (NONNEGATIVE, REQUIRED), "norm_sq": REAL,
        "support": (partial(config_records, table=(SUPPORT_BAG, SUPPORT_MEAN)), REQUIRED),
    }, lambda **values: _model(values.pop("lambda"), **values), "the model"),
    "dataset": Section({"bags": (partial(config_records, table=BAG), REQUIRED)}, _dataset),
}


def read(table: Section, cfg, path: str = ""):
    """The value of the JSON object `cfg` under `table`. A field of the wrong
    type or out of range, a missing field, an unknown key or two alternatives
    given together raise InputError naming the field's path under `path`."""
    if not isinstance(cfg, dict):
        raise InputError(f"{path or table.name} must be a JSON object, got {cfg!r}")
    dotted = (lambda key: f"{path}.{key}") if path else str
    values, dropped = {}, set()
    for keys, (converters, default) in table.items():
        keys, converters = (keys, converters) if isinstance(keys, tuple) else ((keys,), (converters,))
        given = [key for key in keys if key in cfg]
        if len(given) > 1:
            raise InputError(f"give {' or '.join(map(dotted, keys))}, not both")
        for key, convert in zip(keys, converters):
            if key in dropped:
                continue
            if key in cfg:
                values[key] = read(convert, cfg[key], dotted(key)) if isinstance(convert, Section) else convert(cfg[key], dotted(key))
            elif default is REQUIRED:
                raise InputError(f"missing field {dotted(key)}")
            else:
                values[key] = None if given or key != keys[0] else default
            tag = getattr(convert, "keywords", {}).get("options")
            if isinstance(tag, dict):  # the fields of the kinds not selected are not fields here
                dropped.update(field for kind, fields in tag.items() if kind != values[key] for field in fields)
    unknown = sorted(set(cfg) - set(values))
    if unknown:
        raise InputError(f"unknown field {', '.join(map(dotted, unknown))}; {path or table.name} takes {', '.join(values)}")
    return table.build(**values)
