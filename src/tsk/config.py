"""The config format: one table per section and per command, read once at the boundary.

A table maps each field of a JSON object to a row (converter, default); the
converter checks the value and names the field by its dotted path, and a
`Section` converter reads a nested object. A row keyed by a tuple holds
alternatives, of which at most one may be given. A `config_choice` whose options
map to field names is a tag: it admits those fields only when it selects them.
"""

from functools import partial

import numpy as np

from .base_kernels import FAMILY_CODES, BaseKernel
from .errors import InputError, config_float, config_floats, config_int, config_ints
from .hilbert_kernel import H_GAUSSIAN, H_LINEAR, HilbertKernel
from .rng import normals, stream
from .synth import GAUSSIAN_OVERLAP, HARD_MARGIN, MetaDistribution
from .whitenoise import CovarianceOperator

REQUIRED = object()  # the default of a field the config must give


class Section(dict):
    """A table, and `build`, which makes the object's value from the values read (a dict by default)."""

    def __init__(self, rows: dict, build=dict):
        super().__init__(rows)
        self.build = build


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
        "n_grid": (config_ints, REQUIRED), "replicates": (SIZE, REQUIRED), "test_bags": (SIZE, REQUIRED), "bayes_mc": (config_int, 100_000),
        "test_embedding": (config_size_or_exact, "exact"), "train_embedding": (_one_of(("empirical", "exact")), "empirical"),
        "seed": (SEED, REQUIRED), "universal_c": (POSITIVE, 100.0), "tau": (partial(config_float, minimum=1.0), 1.0),
        "row_time_cap_s": (POSITIVE, 300.0),
    }),
    "approx-error": Section({
        "meta": (META, REQUIRED), "hilbert_kernel": (HILBERT_KERNEL, REQUIRED), "base_kernel": (BASE_KERNEL, None),
        "lambda_grid": (partial(config_floats, above=0.0), REQUIRED), "big_n": (config_int, REQUIRED), "test_n": (config_int, None),
        "embedding": (config_size_or_exact, "exact"), "input_space": (_one_of(("kme", "mean")), "kme"),
        ("seeds", "seed"): ((partial(config_ints, minimum=0), SEED), (0,)),
    }),
    "noise-exponent": Section({
        "meta": (META, REQUIRED), "covariance": (COVARIANCE, REQUIRED), "t_grid": (config_floats, REQUIRED),
        "n_outer": (config_int, REQUIRED), "n_inner": (config_int, REQUIRED), "seed": (SEED, REQUIRED), "floor": (config_float, 1e-12),
    }),
    "kme-coverage": Section({
        "base_kernel": (BASE_KERNEL, REQUIRED), "sigma": REAL, "mean": (config_floats, None), "deltas": (config_floats, REQUIRED),
        "bag_sizes": (partial(config_ints, minimum=1), REQUIRED), "trials": (SIZE, REQUIRED), "seed": (SEED, 0),
    }),
    "train": Section({
        "base_kernel": (BASE_KERNEL, REQUIRED), "hilbert_kernel": (HILBERT_KERNEL, REQUIRED),
        "lambda": (POSITIVE, REQUIRED), "tol": (POSITIVE, 1e-8), "max_sweeps": (SIZE, 10_000),
    }),
}


def read(table: Section, cfg, path: str = ""):
    """The value of the JSON object `cfg` under `table`. A field of the wrong
    type or out of range, a missing field, an unknown key or two alternatives
    given together raise InputError naming the dotted path under `path`."""
    if not isinstance(cfg, dict):
        raise InputError(f"{path or 'config'} must be a JSON object, got {cfg!r}")
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
        raise InputError(f"unknown field {', '.join(map(dotted, unknown))}; {path or 'the config'} takes {', '.join(values)}")
    return table.build(**values)
