"""The module attributes perfbench's tracer wraps must exist, ``train_gcin``
must step Adam through the one it counts updates by, ``gcmi impute`` must
call the CSV and imputation functions through the ones it wraps, and every
gcmi name and config field perfbench's code uses must still be there.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` in its
``WRAPPED`` list at the binding gcmi looks up at call time.  A missing
attribute only prints a note in a traced run and blanks the metrics built
on it, so a rename is caught here instead.  The tracing module imports
only the standard library; it is loaded by path, not as a package.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.WRAPPED]


@pytest.mark.parametrize("module, attr", _wrapped())
def test_wrapped_binding_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_train_gcin_steps_adam_through_the_module_attribute(monkeypatch):
    # the traced update counts are the calls through gcmi.gcin.adam_step:
    # one per generator update and one per discriminator update, told
    # apart as the tracer does, by the discriminator's (0, 2) head
    import numpy as np

    import gcmi.gcin

    calls = {"gen": 0, "disc": 0}
    step = gcmi.gcin.adam_step

    def counted(mlp, grads, state):
        calls["disc" if mlp.output_activation == "scaled_sigmoid_0_2" else "gen"] += 1
        return step(mlp, grads, state)

    monkeypatch.setattr(gcmi.gcin, "adam_step", counted)
    X = np.random.default_rng(3).normal(size=(80, 3))
    cfg = gcmi.gcin.TrainConfig(
        max_epochs=20, gen_iters_per_cycle=6, disc_iters_per_cycle=4, batch_size=32
    )
    ((_, trace),) = gcmi.gcin.train_gcin(
        [X], [X.sum(axis=1)], gcmi.ColumnSchema("y", "continuous"), cfg, [1]
    )
    # cycles of 6, 6, 6 and 2 generator updates, after 4, 4, 4 and 2
    # discriminator updates: the cut-short cycle runs its share, ceil(4 * 2 / 6)
    assert len(trace) == 4
    assert calls == {"gen": 20, "disc": 14}


def test_group_fit_steps_adam_once_per_update_for_the_whole_group(monkeypatch):
    # a group of chains fits each column in one stacked call: each update
    # steps each network's stack once, so the traced counts are the
    # stacked calls, whatever the group size
    import numpy as np

    import gcmi.gcin

    stacks = []
    step = gcmi.gcin.adam_step

    def counted(mlp, grads, state):
        stacks.append((mlp.output_activation, mlp.stack))
        return step(mlp, grads, state)

    monkeypatch.setattr(gcmi.gcin, "adam_step", counted)
    X = np.random.default_rng(3).normal(size=(3, 80, 3))
    cfg = gcmi.gcin.TrainConfig(
        max_epochs=20, gen_iters_per_cycle=6, disc_iters_per_cycle=4, batch_size=32
    )
    fits = gcmi.gcin.train_gcin(
        X, X.sum(axis=2), gcmi.ColumnSchema("y", "continuous"), cfg, [1, 2, 3]
    )
    assert [len(trace) for _, trace in fits] == [4, 4, 4]
    # cycles of 6, 6, 6 and 2 generator updates, after 4, 4, 4 and 2 discriminator updates
    assert stacks.count(("scaled_sigmoid_0_2", (3,))) == 14
    assert stacks.count(("identity", (3,))) == 20
    assert len(stacks) == 34


def test_two_sweeps_take_a_full_and_a_warm_budget_of_generator_updates(monkeypatch):
    # what the traced gcin.updates reads: the first sweep fits each column
    # from scratch for B updates, the second continues each pair for
    # ceil(B / 5)
    import numpy as np

    import gcmi.gcin
    from gcmi import GcmiConfig, TrainConfig, gcmi_impute, matrix_from_array

    gen_steps = []
    step = gcmi.gcin.adam_step

    def counted(mlp, grads, state):
        if mlp.output_activation != "scaled_sigmoid_0_2":
            gen_steps.append(mlp.stack)
        return step(mlp, grads, state)

    monkeypatch.setattr(gcmi.gcin, "adam_step", counted)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    mask = rng.random(X.shape) < 0.2
    mask[0] = False
    assert mask.any(axis=0).all()  # all four columns are refit
    budget = 12
    train = TrainConfig(max_epochs=budget, gen_iters_per_cycle=5, disc_iters_per_cycle=2)
    cfg = GcmiConfig(max_chain_iters=2, m_imputations=2, train=train, seed=3)
    result = gcmi_impute(matrix_from_array(X, mask), cfg)
    assert [len(trace) for trace in result.traces] == [2, 2]
    n_cols = 4
    assert len(gen_steps) == n_cols * (budget + 3)
    assert set(gen_steps) == {(2,)}  # both chains in one stack


def test_impute_command_calls_each_binding_through_its_traced_route(tmp_path, monkeypatch):
    # an attribute that exists but that its caller no longer looks up would
    # pass the test above and still blank the traced metrics: count the
    # calls ``gcmi impute`` makes through each route perfbench wraps
    import json

    import gcmi.chained
    import gcmi.cli

    calls = {}

    def count(module, attr):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            key = f"{module.__name__}.{attr}"
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    for module, attr in [
        (gcmi.cli, "read_csv"),
        (gcmi.cli, "gcmi_impute"),
        (gcmi.cli, "save_result"),
        (gcmi.chained, "write_csv"),
    ]:
        count(module, attr)
    rows = [
        f"{i % 7 - 3.5},{'' if i % 4 == 1 else i / 10},{'' if i % 5 == 2 else 'xy'[i % 2]}"
        for i in range(30)
    ]
    (tmp_path / "in.csv").write_text("a,b,c\n" + "\n".join(rows) + "\n")
    train = {"max_epochs": 4, "gen_iters_per_cycle": 2, "disc_iters_per_cycle": 2, "batch_size": 16}
    (tmp_path / "cfg.json").write_text(
        json.dumps({"train": train, "gcmi": {"max_chain_iters": 1, "m_imputations": 3}})
    )
    argv = ["--config", str(tmp_path / "cfg.json"), "--output-dir", str(tmp_path / "out")]
    assert gcmi.cli.cli_main([*argv, "impute", str(tmp_path / "in.csv")]) == 0
    assert calls == {
        "gcmi.cli.read_csv": 1,
        "gcmi.cli.gcmi_impute": 1,
        "gcmi.cli.save_result": 1,
        "gcmi.chained.write_csv": 3,
    }


def _perfbench_sources():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PERFBENCH.glob("*.py"))]


def _dotted(node):
    """``a.b.c`` of a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _resolves(dotted):
    """Whether a dotted name under gcmi names a module or an attribute."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def test_every_gcmi_name_perfbench_uses_resolves():
    # what perfbench imports from gcmi and the gcmi.x.y chains it calls
    # through: a deletion that misses one fails the benchmark run, not tier-1
    used = set()
    for name, tree in _perfbench_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gcmi":
                used |= {(name, f"{node.module}.{alias.name}") for alias in node.names}
            elif isinstance(node, ast.Import):
                used |= {(name, a.name) for a in node.names if a.name.split(".")[0] == "gcmi"}
            elif isinstance(node, ast.Attribute) and (_dotted(node) or "").startswith("gcmi."):
                used.add((name, _dotted(node)))
    assert ("worker.py", "gcmi.nn.backward_with_input_grads") in used
    assert [f"{name}: {dotted}" for name, dotted in sorted(used) if not _resolves(dotted)] == []


def test_every_config_field_perfbench_sets_exists():
    # keywords of TrainConfig(...) and GcmiConfig(...) calls, including a
    # **NAME spread of a dict(...) assigned to NAME, and the keys of the
    # "train" and "gcmi" sections of the config files it writes
    import gcmi

    configs = {name: getattr(gcmi, name) for name in ("TrainConfig", "GcmiConfig")}
    sections = {"train": gcmi.TrainConfig, "gcmi": gcmi.GcmiConfig}
    found = []  # (file, config class, field)
    for name, tree in _perfbench_sources():
        spreads = {
            target.id: node.value.keywords
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _dotted(node.value.func) == "dict"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (_dotted(node.func) or "").split(".")[-1] in configs:
                cls = configs[_dotted(node.func).split(".")[-1]]
                for kw in node.keywords:
                    if kw.arg is not None:
                        found.append((name, cls, kw.arg))
                        continue
                    spread = (_dotted(kw.value) or "").split(".")[-1]  # **NAME or **self.NAME
                    assert spread in spreads, f"{name}: cannot read **{ast.unparse(kw.value)}"
                    found += [(name, cls, k.arg) for k in spreads[spread]]
            elif isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant) and key.value in sections:
                        assert isinstance(value, ast.Dict), f"{name}: cannot read {key.value!r}"
                        cls = sections[key.value]
                        found += [(name, cls, k.value) for k in value.keys]
    assert len(found) >= 10
    fields = {cls: {f.name for f in dataclasses.fields(cls)} for cls in configs.values()}
    assert [f"{n}: {cls.__name__}.{key}" for n, cls, key in found if key not in fields[cls]] == []
