"""The config tables of `tsk.config`: a fuzz generated from them, the README's field list, and the input files.

Every field of every command's table is corrupted in each way that applies to
its converter: missing (when required), a value of the wrong JSON type, out of
range (when the row has a bound), NaN and infinity, a boolean and a numeric
string. Every object also gets an unknown key, every row of alternatives gets
both of them, and every tag gets a field of a kind it did not select. Each
case must exit 2, naming the field's dotted path in the error's first clause.
"""

import json
import math
import re
from pathlib import Path

import pytest

from tsk.cli import main
from tsk.config import COMMANDS, REQUIRED, Section, config_choice, config_rows, config_size_or_exact, read
from tsk.errors import InputError, config_float, config_floats, config_int, config_ints
from tsk.synth import MetaDistribution, bags_to_json, sample_first_stage, sample_second_stage

ROOT = Path(__file__).resolve().parent.parent


def _config(name, **fields):
    return json.loads((ROOT / "configs" / name).read_text()) | fields


_RATES = _config("rates_smoke_empirical.json", row_time_cap_s=300.0)
_APPROX = _config("approx_error_hard_margin.json", big_n=10, test_n=10, seeds=[1])
_NOISE = _config("noise_exponent_r5.json", n_outer=20, n_inner=20)
_EYE5 = [[float(i == j) for j in range(5)] for i in range(5)]
# valid configs of each command that, between them, give every field of its table
BASES = {
    "rates": [
        _RATES,
        _RATES | {"approx_error": {"model": "constant", "value": 0.01}},
        _RATES | {"approx_error": {"model": "power", "c": 0.1, "beta": 0.5}, "schedule": {"kind": "thm45", "alpha": 1.0, "beta": 0.5}},
    ],
    "approx-error": [_APPROX, {k: v for k, v in _APPROX.items() if k != "seeds"} | {"seed": 3}],
    "noise-exponent": [
        _NOISE | {"covariance": _NOISE["covariance"] | {"eigenvectors": _EYE5}},
        _NOISE | {"covariance": _NOISE["covariance"] | {"rotation_seed": 3}},
    ],
    "kme-coverage": [_config("kme_coverage.json", trials=10)],
    "train": [_config("train_example.json")],
}
MISSING = object()


def _rows(table):
    """(key, converter, default, alternatives) of each field of `table`, alternatives split."""
    for keys, (converters, default) in table.items():
        if isinstance(keys, tuple):
            for i, (key, convert) in enumerate(zip(keys, converters)):
                yield key, convert, default if i == 0 else None, keys
        else:
            yield keys, converters, default, ()


def _fields(table, path=()):
    """(dotted path tuple, converter, default, alternatives) of every field, nested sections included."""
    for key, convert, default, alternatives in _rows(table):
        yield path + (key,), convert, default, alternatives
        if isinstance(convert, Section):
            yield from _fields(convert, path + (key,))


def _sections(table, path=()):
    yield path, table
    for key, convert, _, _ in _rows(table):
        if isinstance(convert, Section):
            yield from _sections(convert, path + (key,))


def _lookup(cfg, path):
    for key in path:
        if not isinstance(cfg, dict) or key not in cfg:
            return MISSING
        cfg = cfg[key]
    return cfg


def _base(cmd, path):
    """The first base config of `cmd` that gives the field at `path`."""
    found = [cfg for cfg in BASES[cmd] if _lookup(cfg, path) is not MISSING]
    assert found, f"no base config of {cmd} gives {'.'.join(path)}"
    return found[0]


def _corruptions(convert, default):
    """Each bad value for a field of this converter, by name; MISSING deletes the field."""
    func, bounds = getattr(convert, "func", convert), getattr(convert, "keywords", {})
    if isinstance(convert, Section):
        cases = {"wrong type": [], "bool": True, "nan": math.nan, "numeric string": "1"}
    else:
        wrap = {config_ints: 1, config_floats: 1, config_rows: 2}.get(func, 0)
        cases = {"wrong type": {"x": 1} if wrap else [1], "bool": True, "nan": math.nan, "inf": math.inf, "numeric string": "1"}
        low = {config_size_or_exact: 0}.get(func)
        if "minimum" in bounds:
            low = bounds["minimum"] - 1
        if "above" in bounds:
            low = bounds["above"]
        if low is not None:
            cases["out of range"] = low
        for _ in range(wrap):
            cases = {name: value if name == "wrong type" else [value] for name, value in cases.items()}
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
    for cmd, table in COMMANDS.items():
        for path, convert, default, alternatives in _fields(table):
            base = _base(cmd, path)
            for name, value in _corruptions(convert, default).items():
                yield pytest.param(cmd, _set(base, path, value), ".".join(path), id=f"{cmd}-{'.'.join(path)}-{name}")
            if alternatives and path[-1] == alternatives[0]:
                other = [_lookup(cfg, path[:-1] + (alternatives[1],)) for cfg in BASES[cmd]]
                both = _set(base, path[:-1] + (alternatives[1],), next(v for v in other if v is not MISSING))
                yield pytest.param(cmd, both, ".".join(path), id=f"{cmd}-{'.'.join(path)}-both alternatives")
        for path, section in _sections(table):
            dotted = ".".join(path + ("zz_unknown",))
            yield pytest.param(cmd, _set(_base(cmd, path), path + ("zz_unknown",), 1), dotted, id=f"{cmd}-{dotted}")
            for key, convert, _, _ in _rows(section):
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
    meta = MetaDistribution("hard_margin", 2, 2.0, 0.25, 0.5, 0.5, margin=1.0)
    means, labels = sample_first_stage(meta, 6, 1)
    (path / "bags.json").write_text(bags_to_json([sample_second_stage((m, 0.5), 4, 10 + i) for i, m in enumerate(means)], labels))
    return path


def _run(workdir, cmd, cfg):
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    extra = ["--data", str(workdir / "bags.json")] if cmd == "train" else []
    return main([cmd, "--config", str(workdir / "cfg.json"), "--out", str(workdir / "out"), *extra])


@pytest.mark.parametrize("cmd", list(BASES))
def test_base_configs_run(workdir, cmd):
    for cfg in BASES[cmd]:
        assert _run(workdir, cmd, cfg) == 0


@pytest.mark.parametrize("cmd, cfg, path", list(_cases()))
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
    if func is config_choice:
        options = bounds["options"]
        if isinstance(options, dict):
            return " or ".join(f'`"{kind}"`' + (f" (with {', '.join(f'`{f}`' for f in fields)})" if fields else "") for kind, fields in options.items())
        return " or ".join(f'`"{option}"`' for option in options)
    if func is config_size_or_exact:
        return '`"exact"` or integer >= 1'
    if func is config_rows:
        return "list of d rows of d numbers"
    text = {config_int: "integer", config_ints: "list of integers", config_float: "number", config_floats: "list of numbers"}[func]
    if "above" in bounds:
        text += f" > {bounds['above']:g}"
    if "minimum" in bounds:
        text += f" >= {bounds['minimum']:g}"
    return text


def _readme_rows(table):
    tags = {}
    for key, convert, _, _ in _rows(table):
        options = getattr(convert, "keywords", {}).get("options")
        if isinstance(options, dict):
            for kind, fields in options.items():
                for field in fields:
                    tags.setdefault(field, []).append(f'`{key}` `"{kind}"`')
    for key, convert, default, alternatives in _rows(table):
        value = _describe(convert) + "".join(f"; not with `{other}`" for other in alternatives if other != key)
        if key in tags:
            default = f"required with {' or '.join(tags[key])}"
        else:
            default = {REQUIRED: "required", None: "none"}.get(default) if default in (REQUIRED, None) else f"`{json.dumps(default)}`"
        yield f"| `{key}` | {value} | {default} |"


def expected_readme_tables() -> str:
    """The README's config tables, one per command and one per section, generated from `tsk.config`."""
    parts, seen = [], set()
    for cmd, table in COMMANDS.items():
        parts.append(f"`{cmd}`:\n\n| field | value | default |\n|---|---|---|\n" + "\n".join(_readme_rows(table)))
    for cmd, table in COMMANDS.items():
        for path, section in _sections(table):
            if path and path[-1] not in seen:
                seen.add(path[-1])
                parts.append(f"`{path[-1]}`:\n\n| field | value | default |\n|---|---|---|\n" + "\n".join(_readme_rows(section)))
    return "\n\n".join(parts)


def test_readme_lists_the_tables():
    readme = (ROOT / "README.md").read_text()
    start, end = "<!-- config tables: generated from tsk.config, checked by tests/test_config.py -->", "<!-- end of config tables -->"
    assert start in readme and end in readme
    assert readme.split(start)[1].split(end)[0].strip() == expected_readme_tables()


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
