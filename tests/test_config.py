"""The tables of `tsk.config`: a fuzz generated from them, the README's field list, and the input files.

Every field of every table (each config command's, and the model and dataset
files' through `tsk predict` and `tsk train`) is corrupted in each way that
applies to its converter: missing (when required), a value of the wrong JSON
type, out of range (when the row has a bound), NaN and infinity, a boolean and a
numeric string. Every object, list records included, also gets an unknown key,
and every tag gets a field of a kind it did not select. The fields that earlier
formats took (`REMOVED`) get the same corruptions. Each case must exit 2, naming
the field's path in the error's first clause.
"""

import json
import math
import re
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

from tsk.cli import main
from tsk.config import (
    COMMANDS, FILES, REQUIRED, Section, config_bool, config_choice, config_label, config_labels, config_records, config_samples,
    config_size_or_exact, read,
)
from tsk.errors import InputError, config_float, config_floats, config_int, config_ints
from tsk.kme import embed_bags
from tsk.svm import build_gram, model_to_json, train
from tsk.synth import MetaDistribution, bags_from_json, bags_to_json, sample_first_stage, sample_second_stage

ROOT = Path(__file__).resolve().parent.parent


def _config(name, **fields):
    return json.loads((ROOT / "configs" / name).read_text()) | fields


_RATES = _config("rates_smoke_empirical.json")
_APPROX = _config("approx_error_hard_margin.json", big_n=10, test_n=10, seeds=[1])
_NOISE = _config("noise_exponent_r5.json", n_outer=20, n_inner=20)
# valid inputs of each table (a command's configs, model files, a dataset) that, between them, give every field
BASES = {
    "rates": [
        _RATES,
        _RATES | {"approx_error": {"model": "constant", "value": 0.01}},
        _RATES | {"approx_error": {"model": "power", "c": 0.1, "beta": 0.5}, "schedule": {"kind": "thm45", "alpha": 1.0, "beta": 0.5}},
    ],
    "approx-error": [_APPROX],
    "noise-exponent": [_NOISE],
    "kme-coverage": [_config("kme_coverage.json", trials=10)],
    "train": [_config("train_example.json")],
}
_META = MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 0.5, margin=1.0)
_TRAIN = read(COMMANDS["train"], _config("train_example.json"))


def _dataset(n, seed):
    """The bags of a dataset file: n bags of 4 samples in 2 dimensions."""
    means, labels = sample_first_stage(_META, n, seed)
    return json.loads(bags_to_json([sample_second_stage((m, 0.5), 4, seed + 10 + i) for i, m in enumerate(means)], labels))


def _model_file():
    """The model file that `tsk train` writes for the bags of `_dataset(6, 1)`."""
    base, hk, lam = _TRAIN["base_kernel"], _TRAIN["hilbert_kernel"], _TRAIN["lambda"]
    bags, labels = bags_from_json(json.dumps(_dataset(6, 1)))
    support = embed_bags(base, bags)
    return model_to_json(train(build_gram(hk, support), labels, lam, support=support, hkernel=hk))


BASES |= {"model": [_model_file()], "dataset": [{"bags": _dataset(6, 1)}]}
TABLES = COMMANDS | FILES
MISSING = object()
# fields that earlier formats took, each with the converter it had and a value it read: that value,
# and every corruption the fuzz gave the field, now exit 2 naming it as a field its table does not list
REMOVED = {
    "rates": {("row_time_cap_s",): (partial(config_float, above=0.0), 300.0)},
    "approx-error": {("seed",): (partial(config_int, minimum=0), 3), ("input_space",): (partial(config_choice, options=("kme", "mean")), "kme")},
    "noise-exponent": {("covariance", "rotation_seed"): (partial(config_int, minimum=0), 3)},
    "model": {
        ("support", 1, "weights"): (config_floats, [0.25] * 4),
        ("support", 1, "mean"): (config_floats, [0.0, 0.0]),
        ("support", 1, "spread"): (partial(config_float, minimum=0.0), 0.5),
    },
}


def _dotted(path) -> str:
    """The path as the error messages name it: keys joined by dots, list indexes in brackets."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" if i else key for i, key in enumerate(path))


def _nested(convert, path):
    """(path, table) of the object inside a field, if any: a section, or record 1 of a list of records."""
    if isinstance(convert, Section):
        yield path, convert
    elif getattr(convert, "func", None) is config_records:
        yield path + (1,), convert.keywords["table"]


def _fields(table, path=()):
    """(path tuple, converter, default) of every field, nested objects included."""
    for key, (convert, default) in table.items():
        yield path + (key,), convert, default
        for inner, section in _nested(convert, path + (key,)):
            yield from _fields(section, inner)


def _sections(table, path=()):
    yield path, table
    for key, (convert, _) in table.items():
        for inner, section in _nested(convert, path + (key,)):
            yield from _sections(section, inner)


def _lookup(cfg, path):
    for key in path:
        if not isinstance(cfg, (list, dict)) or (key not in cfg if isinstance(cfg, dict) else key >= len(cfg)):
            return MISSING
        cfg = cfg[key]
    return cfg


def _base(cmd, path):
    """The first base of `cmd` that gives the field at `path`."""
    found = [cfg for cfg in BASES[cmd] if _lookup(cfg, path) is not MISSING]
    assert found, f"no base of {cmd} gives {_dotted(path)}"
    return found[0]


def _corruptions(convert, default):
    """Each bad value for a field of this converter, by name; MISSING deletes the field."""
    func, bounds = getattr(convert, "func", convert), getattr(convert, "keywords", {})
    if isinstance(convert, Section):
        cases = {"wrong type": [], "bool": True, "nan": math.nan, "numeric string": "1"}
    elif func is config_records:
        cases = {"wrong type": {"x": 1}, "bool": True, "nan": math.nan, "numeric string": "1", "out of range": []}
    else:
        wrap = {config_ints: 1, config_floats: 1, config_labels: 1, config_samples: 2}.get(func, 0)
        cases = {"wrong type": {"x": 1} if wrap else [1], "bool": True, "nan": math.nan, "inf": math.inf, "numeric string": "1"}
        if func is config_bool:
            del cases["bool"]
        low = {config_size_or_exact: 0, config_label: 0, config_labels: 0}.get(func)
        if "minimum" in bounds:
            low = bounds["minimum"] - 1
        if "above" in bounds:
            low = bounds["above"]
        if low is not None:
            cases["out of range"] = low
        if "below" in bounds:
            cases["too large"] = bounds["below"]
        if "maximum" in bounds:
            cases["too large"] = bounds["maximum"] + 1
        for _ in range(wrap):
            cases = {name: value if name == "wrong type" else [value] for name, value in cases.items()}
        if func is config_samples:
            cases["out of range"] = []  # a bag with no sample
    if default is REQUIRED:
        cases["missing"] = MISSING
    return cases


def _set(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    target = cfg
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return cfg


def _cases():
    for cmd, table in TABLES.items():
        for path, convert, default in _fields(table):
            base = _base(cmd, path)
            for name, value in _corruptions(convert, default).items():
                if cmd == "dataset" and path == ("bags",) and name == "missing":
                    continue  # the dataset file is the list itself
                yield pytest.param(cmd, _set(base, path, value), _dotted(path), id=f"{cmd}-{_dotted(path)}-{name}")
        for path, (convert, valid) in REMOVED.get(cmd, {}).items():
            for name, value in ({"given": valid} | _corruptions(convert, None)).items():
                yield pytest.param(cmd, _set(BASES[cmd][0], path, value), _dotted(path), id=f"{cmd}-{_dotted(path)}-{name}")
        for path, section in _sections(table):
            if cmd == "dataset" and not path:
                continue
            dotted = _dotted(path + ("zz_unknown",))
            base = _base(cmd, path + (next(iter(section)),))
            yield pytest.param(cmd, _set(base, path + ("zz_unknown",), 1), dotted, id=f"{cmd}-{dotted}")
            for key, (convert, _) in section.items():
                options = getattr(convert, "keywords", {}).get("options")
                if not isinstance(options, dict):
                    continue
                for kind, admitted in options.items():
                    for field in sorted({f for fields in options.values() for f in fields} - set(admitted)):
                        base = next(cfg for cfg in BASES[cmd] if _lookup(cfg, path + (field,)) is not MISSING)
                        cfg = _set(_set(base, path + (key,), kind), path + (field,), _lookup(base, path + (field,)))
                        for other in admitted:
                            cfg = _set(cfg, path + (other,), 0.5)
                        dotted = ".".join(path + (field,))
                        yield pytest.param(cmd, cfg, dotted, id=f"{cmd}-{dotted}-with {kind}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("config-fuzz")
    (path / "bags.json").write_text(json.dumps(_dataset(6, 1)))
    return path


def _run(workdir, cmd, cfg):
    """Run the command on `cfg`: a config, a model file (`tsk predict`) or a dataset's {"bags": ...} (`tsk train`)."""
    (workdir / "cfg.json").write_text(json.dumps(cfg["bags"] if cmd == "dataset" else cfg))
    data, out = ["--data", str(workdir / "bags.json")], ["--out", str(workdir / "out")]
    if cmd == "model":
        return main(["predict", "--model", str(workdir / "cfg.json"), *data, *out])
    if cmd == "dataset":
        return main(["train", "--config", str(ROOT / "configs" / "train_example.json"), "--data", str(workdir / "cfg.json"), *out])
    return main([cmd, "--config", str(workdir / "cfg.json"), *out, *(data if cmd == "train" else [])])


@pytest.mark.parametrize("cmd", list(BASES))
def test_base_configs_run(workdir, cmd):
    for cfg in BASES[cmd]:
        assert _run(workdir, cmd, cfg) == 0


def _edited(cmd, edit):
    cfg = json.loads(json.dumps(BASES[cmd][0]))
    edit(cfg)
    return cfg


# each of these exited 0, or exited 2 with a message that named no field, before
# the model and dataset files were read by the tables
ACCEPTED_BEFORE = [
    pytest.param("model", _edited("model", lambda m: m.update(lambdaa=0.1)), "lambdaa", id="model-lambdaa"),
    pytest.param("model", _edited("model", lambda m: [m.pop(k) for k in ("converged", "kkt_residual", "norm_sq")]), "converged", id="model-no solver state"),
    pytest.param("model", _edited("model", lambda m: m["support"][3].update(weigths=[0.25] * 4)), "support[3].weigths", id="model-support[3].weigths"),
    pytest.param("model", _edited("model", lambda m: m["support"][3].update(mean=[0.0, 0.0])), "support[3].mean", id="model-bag with a mean"),
    pytest.param("model", _edited("model", lambda m: m["labels"].__setitem__(2, True)), "labels", id="model-true among labels"),
    pytest.param("model", _edited("model", lambda m: m.update(support={"samples": 1})), "support", id="model-support an object"),
    pytest.param("dataset", _edited("dataset", lambda d: d["bags"][0].update(lable=1)), "bags[0].lable", id="dataset-bags[0].lable"),
    pytest.param("dataset", _edited("dataset", lambda d: d["bags"][0]["samples"][0].__setitem__(1, 1e400)), "bags[0].samples", id="dataset-sample 1e400"),
    pytest.param("dataset", _edited("dataset", lambda d: d["bags"][2]["samples"][1].__setitem__(0, True)), "bags[2].samples", id="dataset-true among samples"),
]


@pytest.mark.parametrize("cmd, cfg, path", list(_cases()) + ACCEPTED_BEFORE)
def test_corrupted_field_exits_2_naming_it(workdir, capsys, cmd, cfg, path):
    assert _run(workdir, cmd, cfg) == 2
    message = capsys.readouterr().err.split(";")[0]
    assert re.search(rf"(?<![\w.]){re.escape(path)}(?![\w.])", message), message


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda cfg: cfg.update(row_time_cap=1e-9), "row_time_cap"),
        (lambda cfg: cfg.update(replicatess=3), "replicatess"),
        (lambda cfg: cfg["meta"].update(sigmaa=0.5), "meta.sigmaa"),
    ],
)
def test_misspelled_rates_field_exits_2(workdir, capsys, mutate, path):
    cfg = _config("rates_smoke_empirical.json")
    mutate(cfg)
    assert _run(workdir, "rates", cfg) == 2
    assert f"unknown field {path};" in capsys.readouterr().err


# ranges, tags and checks across fields that the library made only after its first draw, or without
# naming the field, or not at all; each with the start of its error message
LATE_CHECKS = [
    ("kme-coverage", lambda c: c.update(deltas=[0.1, 2.0]), "deltas must", "kme-coverage-deltas"),
    ("approx-error", lambda c: c["meta"].update(dim=3), "meta.dim must", "approx-error-meta.dim"),
    ("rates", lambda c: c.update(bayes_mc=0), "bayes_mc must", "rates-bayes_mc"),
    ("noise-exponent", lambda c: c.update(n_outer=0), "n_outer must", "noise-exponent-n_outer"),
    ("noise-exponent", lambda c: c.update(t_grid=[2.0, 1.0]), "t_grid must", "noise-exponent-2-point t_grid"),
    ("noise-exponent", lambda c: c.update(covariance={"eigenvalues": [1.0, 0.5]}), "covariance.eigenvalues must", "noise-exponent-2 eigenvalues"),
    ("approx-error", lambda c: c.update(test_n=0), "test_n must", "approx-error-test_n"),
    ("approx-error", lambda c: c.update(big_n=1), "big_n must", "approx-error-big_n"),
    ("approx-error", lambda c: c.pop("base_kernel"), "missing field base_kernel", "approx-error-kme without base_kernel"),
    ("rates", lambda c: c.update(n_grid=[0, 8]), "n_grid must", "rates-n_grid"),
    ("rates", lambda c: c.update(n_grid=[]), "n_grid must", "rates-empty n_grid"),
    ("rates", lambda c: c.update(n_grid=[16, 8]), "n_grid must", "rates-decreasing n_grid"),
    ("kme-coverage", lambda c: c.update(sigma=-1.0), "sigma must", "kme-coverage-sigma"),
    ("kme-coverage", lambda c: c.update(mean=[0.0, 0.0, 0.0]), "mean must", "kme-coverage-3-number mean"),
    ("kme-coverage", lambda c: c.update(deltas=[]), "deltas must", "kme-coverage-empty deltas"),
    ("kme-coverage", lambda c: c.update(bag_sizes=[]), "bag_sizes must", "kme-coverage-empty bag_sizes"),
    ("approx-error", lambda c: c.update(lambda_grid=[]), "lambda_grid must", "approx-error-empty lambda_grid"),
    ("approx-error", lambda c: c.update(seeds=[]), "seeds must", "approx-error-empty seeds"),
    ("approx-error", lambda c: c.update(input_space="kme"), "unknown field input_space;", "approx-error-input_space given"),
    ("rates", lambda c: c["schedule"].update(alpha=3), "schedule.alpha must be <= 2", "rates-schedule.alpha 3"),
    ("rates", lambda c: c["schedule"].update(mu=0), "schedule.mu must be > 0", "rates-schedule.mu 0"),
    ("rates", lambda c: c.update(schedule={"kind": "thm45", "alpha": 1.0, "beta": 1.5}), "schedule.beta must be <= 1", "rates-thm45 schedule.beta 1.5"),
    ("rates", lambda c: c["meta"].update(p_plus=1.5), "meta.p_plus must be <= 1", "rates-meta.p_plus 1.5"),
    ("rates", lambda c: c["meta"].update(r=0), "meta.r must be > 0", "rates-hard_margin meta.r 0"),
    ("rates", lambda c: c["meta"].pop("r"), "missing field meta.r", "rates-hard_margin without meta.r"),
    ("rates", lambda c: c["meta"].update(family="gaussian_overlap"), "unknown field meta.r;", "rates-gaussian_overlap with meta.r"),
    ("noise-exponent", lambda c: c["covariance"]["eigenvalues"].__setitem__(2, 0.0), "covariance.eigenvalues must be > 0", "noise-exponent-eigenvalue 0"),
]


@pytest.mark.parametrize("cmd, edit, message", [pytest.param(*case[:3], id=case[3]) for case in LATE_CHECKS])
def test_range_exits_2_at_load_before_any_draw(workdir, capsys, cmd, edit, message):
    with mock.patch("numpy.random.Philox", side_effect=AssertionError("a random stream was opened")):
        assert _run(workdir, cmd, _edited(cmd, edit)) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_every_reference_config_reads():
    for cmd, name in [
        ("rates", "rates_hard_margin.json"),
        ("rates", "rates_smoke_empirical.json"),
        ("approx-error", "approx_error_hard_margin.json"),
        ("noise-exponent", "noise_exponent_r5.json"),
        ("kme-coverage", "kme_coverage.json"),
        ("train", "train_example.json"),
    ]:
        read(COMMANDS[cmd], _config(name))


def test_read_does_not_change_its_input():
    cfg = _config("rates_smoke_empirical.json")
    before = json.dumps(cfg, sort_keys=True)
    read(COMMANDS["rates"], cfg)
    assert json.dumps(cfg, sort_keys=True) == before
    with pytest.raises(InputError, match="config must be a JSON object"):
        read(COMMANDS["rates"], [cfg])


# --- the README's field list ---

def _describe(convert) -> str:
    func, bounds = getattr(convert, "func", convert), getattr(convert, "keywords", {})
    if isinstance(convert, Section):
        return "object, below"
    if func is config_records:
        return "nonempty list of objects, below"
    if func is config_choice:
        options = bounds["options"]
        if isinstance(options, dict):
            return " or ".join(f'`"{kind}"`' + (f" (with {', '.join(f'`{f}`' for f in fields)})" if fields else "") for kind, fields in options.items())
        return " or ".join(f'`"{option}"`' for option in options)
    if func is config_size_or_exact:
        return '`"exact"` or integer >= 1'
    text = {
        config_int: "integer", config_ints: "nonempty list of integers", config_float: "number", config_floats: "nonempty list of numbers",
        config_bool: "`true` or `false`", config_label: "-1 or +1", config_labels: "list of -1 or +1",
        config_samples: "nonempty matrix of numbers, rows of one width",
    }[func]
    lower = next((f"{bracket}{bounds[key]:g}" for key, bracket in (("above", "("), ("minimum", "[")) if key in bounds), None)
    upper = next((f"{bounds[key]:g}{bracket}" for key, bracket in (("below", ")"), ("maximum", "]")) if key in bounds), None)
    if lower and upper:
        return f"{text} in {lower}, {upper}"
    if "above" in bounds:
        text += f" > {bounds['above']:g}"
    if "minimum" in bounds:
        text += f" >= {bounds['minimum']:g}"
    return text


def _readme_rows(table):
    tags = {}
    for key, (convert, _) in table.items():
        options = getattr(convert, "keywords", {}).get("options")
        if isinstance(options, dict):
            for kind, fields in options.items():
                for field in fields:
                    tags.setdefault(field, []).append(f'`{key}` `"{kind}"`')
    for key, (convert, default) in table.items():
        value = _describe(convert)
        if key in tags:
            default = f"required with {' or '.join(tags[key])}"
        else:
            default = {REQUIRED: "required", None: "none"}.get(default) if default in (REQUIRED, None) else f"`{json.dumps(default)}`"
        yield f"| `{key}` | {value} | {default} |"


def _titled_sections(tables):
    """(title, table) of each object nested in `tables`: a section by its key, a record by its list's."""
    for table in tables.values():
        for path, section in _sections(table):
            if path:
                yield (f"`{path[-2]}[i]`" if isinstance(path[-1], int) else f"`{path[-1]}`"), section


def expected_readme_tables(tables, skip=()) -> str:
    """README tables, one per entry of `tables` and one per nested object not titled in `skip`, generated from `tsk.config`."""
    parts, seen = [], {title for title, _ in skip}
    for title, table in [(f"`{name}`", table) for name, table in tables.items()] + list(_titled_sections(tables)):
        if title not in seen:
            seen.add(title)
            parts.append(f"{title}:\n\n| field | value | default |\n|---|---|---|\n" + "\n".join(_readme_rows(table)))
    return "\n\n".join(parts)


def test_readme_lists_the_tables():
    readme = (ROOT / "README.md").read_text()
    for what, tables, skip in [("config", COMMANDS, ()), ("input file", FILES, _titled_sections(COMMANDS))]:
        start, end = f"<!-- {what} tables: generated from tsk.config, checked by tests/test_config.py -->", f"<!-- end of {what} tables -->"
        assert start in readme and end in readme
        assert readme.split(start)[1].split(end)[0].strip() == expected_readme_tables(tables, skip)


# --- input files ---

@pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8"])
@pytest.mark.parametrize("flag", ["--config", "--data", "--model"])
def test_unreadable_input_file_exits_2_naming_it(workdir, tmp_path, capsys, flag, kind):
    bad = tmp_path / "input.json"
    if kind == "directory":
        bad.mkdir()
    elif kind == "not UTF-8":
        bad.write_bytes(b'{"lambda": "\xff"}')
    args = {
        "--config": ["train", "--config", str(bad), "--data", str(workdir / "bags.json")],
        "--data": ["train", "--config", str(ROOT / "configs" / "train_example.json"), "--data", str(bad)],
        "--model": ["predict", "--model", str(bad), "--data", str(workdir / "bags.json")],
    }[flag]
    assert main([*args, "--out", str(tmp_path / "out.json")]) == 2
    assert str(bad) in capsys.readouterr().err
