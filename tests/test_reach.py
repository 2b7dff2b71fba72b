"""Every function of `src/tsk`, every config choice and every input field is run or given by a shipped program, or listed with a reason.

A shipped program is a `tsk` subcommand run on a file in `configs/` (and
`whitenoise-verify`, which takes flags only; `train` and `predict` run on the
checked-in `configs/bags_example.json`, and `predict` once more with that
dataset given as the model, the input mistake whose exit 2 the README
documents). `trace_programs` runs each of them in one fresh interpreter, in
process through `tsk.cli.main`, under `sys.settrace` and `threading.settrace`
(call events only, so the noise fit's worker threads are traced too), at
reduced sizes that take the same branches. The functions that never run must be exactly those that `UNREACHED`
lists: an unlisted function that stops running fails, and so does a listed one
that starts. Every option of a `config_choice` row, and both forms of a
`config_size_or_exact` row, must be taken by a file in `configs/` or be listed
in `UNTAKEN`. Every field of every table of `tsk.config` (each command's, and
the model and dataset files') must be given by a file in `configs/` or by the
model that `tsk train` writes from `configs/train_example.json` and
`configs/bags_example.json`, be admitted only by options on `UNTAKEN`, or be
listed in `UNGIVEN`.
"""

import ast
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tsk"
CONFIGS = ROOT / "configs"

# function (module.qualname) or class (module.Class, all its methods) -> why no shipped program runs it
_PERFBENCH = "read by perfbench, which cannot change with the library"
UNREACHED = {
    "_backend.active_backend": _PERFBENCH + " (its worker stamp); goes with ROADMAP item 2",
    "_backend.pair_sum": _PERFBENCH + " (its TRACED table); goes with ROADMAP item 2",
    "kme.inner": _PERFBENCH + " (its TRACED table); goes with ROADMAP item 2",
    "kme.embed": _PERFBENCH + " (its TRACED table); goes with ROADMAP item 2",
    "kme.gaussian_kme_inner_matrix": _PERFBENCH + " (its TRACED table); goes with ROADMAP item 2",
    "hilbert_kernel.hk_eval": _PERFBENCH + " (its TRACED table); goes with ROADMAP item 2",
    "svm.decision_value": _PERFBENCH + " (its TRACED table); goes with ROADMAP item 2",
    "base_kernels.BaseKernel.from_config": _PERFBENCH + " (its prepare); goes with ROADMAP item 2",
    "hilbert_kernel.HilbertKernel.from_config": _PERFBENCH + " (its prepare); goes with ROADMAP item 2",
    "synth.MetaDistribution.from_config": _PERFBENCH + " (its prepare); goes with ROADMAP item 2",
    "whitenoise.CovarianceOperator.from_config": _PERFBENCH + " (its prepare); goes with ROADMAP item 2",
    "synth.bags_to_json": _PERFBENCH + " (its prepare), and writes configs/bags_example.json by the README's command",
    "bounds.consistency_check": "the consistency conditions go into the rates summary with ROADMAP item 3",
    "bounds.ConsistencyReport": "the consistency conditions go into the rates summary with ROADMAP item 3",
    "bounds.fit_approx_exponent": "fitted by ROADMAP item 11's approximation-error configs",
    "kme.PointBatch": "the identity embedding of `approx_error_estimate` without a base kernel, run only by acceptance test c07",
    "kme._dot_into": "the identity embedding of `approx_error_estimate` without a base kernel, run only by acceptance test c07",
    "kme._point_dots": "the identity embedding of `approx_error_estimate` without a base kernel, run only by acceptance test c07",
}

# (config path, option) -> why no file in configs/ takes it
UNTAKEN = {
    ("meta.family", "gaussian_overlap"): "the overlap geometry of ROADMAP item 11's configs",
    ("schedule.kind", "thm45"): "the thm45 schedule of ROADMAP item 11's configs",
    ("approx_error.model", "constant"): "an approximation-error model of ROADMAP item 11",
    ("approx_error.model", "power"): "an approximation-error model of ROADMAP item 11",
    ("rates.test_embedding", "an integer"): "test bags of the two-stage learning curve of ROADMAP item 4",
    ("approx-error.embedding", "an integer"): "training bags of the two-stage learning curve of ROADMAP item 4",
}

# field path (command or file, then dotted keys, a list's records as `[i]`) -> why no shipped file gives it
UNGIVEN = {}


def _reduced(name: str, **fields) -> dict:
    return json.loads((CONFIGS / name).read_text()) | fields


# each shipped program: its argument list, a reduced config written as config.json when it takes
# one, and its exit code; the last run gives the dataset as the model, a mistake that exits 2
DATASET = str(CONFIGS / "bags_example.json")
PROGRAMS = [
    (["rates", "--config", "config.json", "--out", "r.csv", "--summary", "s.json"],
     _reduced("rates_hard_margin.json", n_grid=[8, 16], replicates=2, test_bags=20), 0),
    (["rates", "--config", "config.json", "--out", "r.csv", "--summary", "s.json"],
     _reduced("rates_smoke_empirical.json", test_bags=20, bayes_mc=200), 0),
    (["approx-error", "--config", "config.json", "--out", "a.json"],
     _reduced("approx_error_hard_margin.json", big_n=12, test_n=12, seeds=[1, 2]), 0),
    (["noise-exponent", "--config", "config.json", "--out", "n.json"], _reduced("noise_exponent_r5.json", n_outer=10, n_inner=20), 0),
    (["kme-coverage", "--config", "config.json", "--out", "k.json"], _reduced("kme_coverage.json", trials=10), 0),
    (["whitenoise-verify", "--dim", "2", "--gamma", "1.0", "--mc", "1000", "--seed", "1", "--checks", "1", "--out", "w.json"], None, 0),
    (["train", "--config", "config.json", "--data", DATASET, "--out", "model.json"], _reduced("train_example.json"), 0),
    (["predict", "--model", "model.json", "--data", DATASET, "--out", "p.json"], None, 0),
    (["predict", "--model", DATASET, "--data", DATASET, "--out", "p.json"], None, 2),
]


def trace_programs() -> set:
    """(file name, first line) of every code object of `src/tsk` that the shipped programs call,
    imports included, each run in the current directory. Run it in a fresh interpreter, so
    that `tsk` is first imported under the trace."""
    called = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(str(SRC)):
            called.add((Path(frame.f_code.co_filename).name, frame.f_code.co_firstlineno))

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        from tsk.cli import main

        for args, cfg, code in PROGRAMS:
            if cfg is not None:
                Path("config.json").write_text(json.dumps(cfg))
            assert main(args) == code, f"tsk {' '.join(args)} did not exit {code}"
    finally:
        threading.settrace(None)
        sys.settrace(None)
    return called


def source_functions() -> dict:
    """module.qualname of every function defined in `src/tsk` (methods and nested functions
    included), keyed by (file name, first line of its code object: its first decorator's, if any)."""
    out = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    out[(file, min([child.lineno] + [d.lineno for d in child.decorator_list]))] = name
                visit(child, file, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, path.stem)
    return out


def unreached_functions(tmp_path) -> set:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")])))
    probe = "import json, test_reach\nprint(json.dumps(sorted(test_reach.trace_programs())))\n"
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    called = {tuple(key) for key in json.loads(out.stdout.splitlines()[-1])}
    return {name for key, name in source_functions().items() if key not in called}


def _listed(name: str) -> str | None:
    """The entry of `UNREACHED` that covers the function `name`, if any."""
    return next((entry for entry in UNREACHED if name == entry or name.startswith(entry + ".")), None)


def test_unreached_functions_are_exactly_the_listed_ones(tmp_path):
    unreached = unreached_functions(tmp_path)
    functions = set(source_functions().values())
    assert sorted(f for f in unreached if _listed(f) is None) == [], "functions no shipped program runs, not listed"
    started = sorted(f for f in functions - unreached if _listed(f) is not None)
    assert started == [], "listed functions that a shipped program now runs: take them off the list"
    assert all(any(_listed(f) == entry for f in functions) for entry in UNREACHED), "entries that name no function"


def _key(path: str) -> str:
    """The last two parts of a dotted config path: a command's field, or a field of a section that several commands share."""
    return ".".join(path.split(".")[-2:])


def _choices(table, path):
    """(field, option) of every `config_choice` option and `config_size_or_exact` form in a table."""
    from tsk.config import Section, config_size_or_exact

    for key, (convert, _) in table.items():
        if isinstance(convert, Section):
            yield from _choices(convert, f"{path}.{key}")
        elif convert is config_size_or_exact:
            yield from ((_key(f"{path}.{key}"), form) for form in ("exact", "an integer"))
        elif "options" in getattr(convert, "keywords", {}):
            yield from ((_key(f"{path}.{key}"), option) for option in convert.keywords["options"])


def _taken(cfg, path):
    """(field, value) of every string, and of every integer as "an integer", in a config."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _taken(value, f"{path}.{key}")
        elif isinstance(value, str):
            yield _key(f"{path}.{key}"), value
        elif isinstance(value, int) and not isinstance(value, bool):
            yield _key(f"{path}.{key}"), "an integer"


def _command(cfg):
    """The command whose table reads the config, if any."""
    from tsk.config import COMMANDS, read
    from tsk.errors import InputError

    for name, table in COMMANDS.items():
        try:
            read(table, cfg)
        except InputError:
            continue
        return name
    return None


def test_every_config_choice_is_taken_by_a_shipped_config_or_listed():
    from tsk.config import COMMANDS

    taken = set()
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        if _command(cfg) is not None:
            taken |= set(_taken(cfg, _command(cfg)))
    choices = {choice for name, table in COMMANDS.items() for choice in _choices(table, name)}
    assert sorted(choices - taken - set(UNTAKEN)) == [], "config choices that no file in configs/ takes, not listed"
    assert sorted(set(UNTAKEN) & taken) == [], "listed config choices that a file in configs/ now takes: take them off the list"
    assert set(UNTAKEN) <= choices, "listed config choices that no table offers"


def _field_paths(table, path):
    """(path, options) of every field of a table and of the objects nested in it, a list's records as
    `[i]`; options holds the (tag, option) pairs that admit the field when a tag admits it, else none."""
    from tsk.config import Section, config_records

    tags = {}
    for key, (convert, _) in table.items():
        options = getattr(convert, "keywords", {}).get("options")
        for option, fields in options.items() if isinstance(options, dict) else ():
            for field in fields:
                tags.setdefault(field, set()).add((_key(f"{path}.{key}"), option))
    for key, (convert, _) in table.items():
        yield f"{path}.{key}", frozenset(tags.get(key, ()))
        if isinstance(convert, Section):
            yield from _field_paths(convert, f"{path}.{key}")
        elif getattr(convert, "func", None) is config_records:
            yield from _field_paths(convert.keywords["table"], f"{path}.{key}[i]")


def _given(value, path):
    """The path of every key in a JSON value, a list's objects as `[i]`."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield f"{path}.{key}"
            yield from _given(inner, f"{path}.{key}")
    elif isinstance(value, list) and value and all(isinstance(inner, dict) for inner in value):
        for inner in value:
            yield from _given(inner, f"{path}[i]")


def test_every_field_is_given_by_a_shipped_file_or_listed(tmp_path):
    from tsk.cli import main
    from tsk.config import COMMANDS, FILES

    given = set()
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        if isinstance(cfg, list):  # a dataset file is the list `bags` itself
            given |= set(_given({"bags": cfg}, "dataset"))
        elif _command(cfg) is not None:
            given |= set(_given(cfg, _command(cfg)))
    model = tmp_path / "model.json"
    assert main(["train", "--config", str(CONFIGS / "train_example.json"), "--data", DATASET, "--out", str(model)]) == 0
    given |= set(_given(json.loads(model.read_text()), "model"))
    fields = {path: options for name, table in (COMMANDS | FILES).items() for path, options in _field_paths(table, name)}
    untaken = {path for path, options in fields.items() if options and options <= set(UNTAKEN)}
    assert sorted(set(fields) - given - untaken - set(UNGIVEN)) == [], "fields that no shipped file gives, not listed"
    assert sorted(set(UNGIVEN) & (given | untaken)) == [], "listed fields that a shipped file now gives: take them off the list"
    assert set(UNGIVEN) <= set(fields), "listed fields that no table has"
