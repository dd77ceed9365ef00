"""Command-line surface: subcommand contracts, config plumbing, exit codes."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmi import read_csv
from gcmi.cli import cli_main
from gcmi.config import load_config, parse_config


TINY_TRAIN = {
    "max_epochs": 20,
    "gen_iters_per_cycle": 10,
    "disc_iters_per_cycle": 2,
    "batch_size": 32,
    "noise_dim": 2,
}


def run(argv):
    return cli_main(argv)


# keys that configs used to accept and now reject as unknown
REMOVED_KEYS = [
    {"gcmi": {"column_parallelism": "sequential"}},
    {"gcmi": {"initial_fill": "mean_mode"}},
    {"train": {"seed": 1}},
    {"impute": {"m": 2}},
    # the root seed and threads are the only seed and worker keys
    {"gcmi": {"seed": 1}},
    {"gcmi": {"workers": 2}},
    {"simulate": {"seed": 1}},
    {"ampute": {"seed": 1}},
    {"benchmark": {"seed": 1}},
    {"benchmark": {"synthetic": {"seed": 1}}},
    {"benchmark": {"mechanisms": [{"seed": 1}]}},
    # MAR weights are an array with no JSON form
    {"ampute": {"beta": [1.0]}},
    {"benchmark": {"mechanisms": [{"beta": [1.0]}]}},
]


class TestSimulate:
    def test_writes_covariates_plus_outcome(self, tmp_path):
        code = run(
            ["--output-dir", str(tmp_path), "--seed", "3",
             "simulate", "--n", "50", "--p", "4", "--rho", "0.3"]
        )
        assert code == 0
        dm = read_csv(tmp_path / "synthetic.csv")
        assert dm.values.shape == (50, 5)
        assert [c.name for c in dm.schema] == ["X1", "X2", "X3", "X4", "Y"]
        assert not dm.mask.any()

    def test_seed_reproduces(self, tmp_path):
        for sub in ("a", "b"):
            run(["--output-dir", str(tmp_path / sub), "--seed", "7",
                 "simulate", "--n", "20", "--p", "3"])
        assert (tmp_path / "a" / "synthetic.csv").read_bytes() == (
            tmp_path / "b" / "synthetic.csv"
        ).read_bytes()

    def test_reference_scale(self, tmp_path):
        code = run(["--output-dir", str(tmp_path),
                    "simulate", "--n", "2000", "--p", "15", "--rho", "0.3"])
        assert code == 0
        dm = read_csv(tmp_path / "synthetic.csv")
        assert dm.values.shape == (2000, 16)  # 15 covariates plus the outcome


class TestAmpute:
    @pytest.fixture()
    def complete_csv(self, tmp_path):
        run(["--output-dir", str(tmp_path), "simulate", "--n", "40", "--p", "3"])
        return tmp_path / "synthetic.csv"

    def test_values_and_mask_files(self, tmp_path, complete_csv):
        code = run(
            ["--output-dir", str(tmp_path), "ampute", str(complete_csv),
             "--mechanism", "mcar", "--rate", "0.25"]
        )
        assert code == 0
        values = read_csv(tmp_path / "amputed_values.csv")
        mask_dm = read_csv(tmp_path / "amputed_mask.csv")
        assert values.mask.sum() > 0
        assert np.array_equal(values.mask, mask_dm.values.astype(bool))

    def test_incomplete_input_is_data_error(self, tmp_path, complete_csv):
        run(["--output-dir", str(tmp_path), "ampute", str(complete_csv), "--rate", "0.5"])
        code = run(
            ["--output-dir", str(tmp_path), "ampute",
             str(tmp_path / "amputed_values.csv"), "--rate", "0.2"]
        )
        assert code == 2

    def test_missing_input_file(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "ampute", "nope.csv"]) == 2


class TestImpute:
    def test_produces_m_csvs_and_manifest(self, tmp_path):
        run(["--output-dir", str(tmp_path), "simulate", "--n", "40", "--p", "3"])
        run(["--output-dir", str(tmp_path), "ampute",
             str(tmp_path / "synthetic.csv"), "--rate", "0.2"])
        cfg = {"seed": 5, "train": TINY_TRAIN, "gcmi": {"max_chain_iters": 1}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(
            ["--config", str(cfg_path), "--output-dir", str(tmp_path),
             "impute", str(tmp_path / "amputed_values.csv"), "--m", "2"]
        )
        assert code == 0
        for i in (1, 2):
            out = read_csv(tmp_path / f"imputed_imp{i}.csv")
            assert not out.mask.any()
        manifest = json.loads((tmp_path / "imputed_manifest.json").read_text())
        assert manifest["m_imputations"] == 2


class TestBenchmarkCommand:
    def test_runs_from_config(self, tmp_path):
        cfg = {
            "seed": 2,
            "train": TINY_TRAIN,
            "gcmi": {"max_chain_iters": 1, "m_imputations": 1},
            "benchmark": {
                "synthetic": {"n": 50, "p": 4},
                "mechanisms": [{"mechanism": "mcar", "rate": 0.3}],
                "methods": [{"kind": "mean"}],
                "mc_repeats": 2,
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(["--config", str(cfg_path), "--output-dir", str(tmp_path), "benchmark"])
        assert code == 0
        assert (tmp_path / "benchmark.csv").exists()
        assert (tmp_path / "benchmark.json").exists()

    def test_benchmark_without_config_is_usage_error(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "benchmark"]) == 1


class TestExitCodes:
    def test_unknown_flag_exits_one(self, capsys):
        assert run(["simulate", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command_exits_one(self):
        assert run(["transmogrify"]) == 1

    def test_bad_config_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["--config", str(bad), "simulate"]) == 1

    def test_unknown_config_key_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"trainn": {}}')
        assert run(["--config", str(bad), "simulate"]) == 1

    @pytest.mark.parametrize(
        "config, message",
        [
            # keys removed after the boolean cases were added come last, so
            # the earlier cases keep their ids
            *((key, "unknown key") for key in REMOVED_KEYS[:4]),
            ({"benchmark": {"normalized": "false"}}, "benchmark.normalized must be true or false"),
            ({"benchmark": {"normalized": 1}}, "benchmark.normalized must be true or false"),
            ({"benchmark": {"dump_raw": "no"}}, "benchmark.dump_raw must be true or false"),
            ({"benchmark": {"dump_raw": None}}, "benchmark.dump_raw must be true or false"),
            *((key, "unknown key") for key in REMOVED_KEYS[4:]),
        ],
    )
    def test_removed_key_or_non_bool_flag_exits_one_line(self, tmp_path, config, message, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert run(["--config", str(path), "--seed", "3", "simulate"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("configuration error: ") and message in err

    @pytest.mark.parametrize(
        "config, command, key",
        [
            ({"threads": "two"}, "simulate", "threads"),
            ({"benchmark": {"mc_repeats": "many"}}, "benchmark", "benchmark.mc_repeats"),
            ({"train": {"lr_generator": "x"}}, "impute", "train.lr_generator"),
            ({"train": 3}, "impute", "train"),
            ({"gcmi": 7}, "impute", "gcmi"),
            ({"ampute": {"cond_cols": 5}}, "ampute", "ampute.cond_cols"),
            ({"benchmark": {"methods": [3]}}, "benchmark", "benchmark.methods[0]"),
            ({"simulate": {"alpha": [1, "x"]}}, "simulate", "simulate.alpha[1]"),
            ({"ampute": {"rate": "0.2"}}, "ampute", "ampute.rate"),
            ({"impute": {"input": 5}}, "impute", "impute.input"),
            ({"simulate": {"n": 2.5}}, "simulate", "simulate.n"),
            ({"gcmi": {"m_imputations": 1.5}}, "impute", "gcmi.m_imputations"),
            ({"seed": "1"}, "simulate", "seed"),
            ({"threads": True}, "simulate", "threads"),
            ({"output_dir": 3}, "simulate", "output_dir"),
            ({"ampute": {"cond_cols": [0.5, 1]}}, "ampute", "ampute.cond_cols[0]"),
            ({"benchmark": {"data": 5}}, "benchmark", "benchmark.data"),
            ({"train": {"early_stop_tol": float("nan")}}, "impute", "train.early_stop_tol"),
        ],
    )
    def test_wrongly_typed_value_exits_one_line_naming_key(
        self, tmp_path, monkeypatch, config, command, key, capsys
    ):
        monkeypatch.chdir(tmp_path)  # outputs, if any, stay in the test's directory
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert run(["--config", "c.json", command]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"configuration error: {key} must be ")


class TestBadArgumentsExitCleanly:
    """Out-of-range arguments end in an exit code and one line on stderr."""

    @staticmethod
    def assert_one_line(capsys):
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.fixture()
    def complete_csv(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        return path

    def test_ampute_rate_out_of_range(self, tmp_path, complete_csv, capsys):
        argv = ["--output-dir", str(tmp_path), "ampute", str(complete_csv), "--rate", "2"]
        assert run(argv) == 1
        self.assert_one_line(capsys)

    def test_simulate_zero_rows(self, tmp_path, capsys):
        assert run(["--output-dir", str(tmp_path), "simulate", "--n", "0"]) == 1
        self.assert_one_line(capsys)

    def test_zero_threads(self, tmp_path, complete_csv, capsys):
        argv = ["--output-dir", str(tmp_path), "--threads", "0", "impute", str(complete_csv)]
        assert run(argv) == 1
        self.assert_one_line(capsys)

    def test_mar_on_too_narrow_table(self, tmp_path, complete_csv, capsys):
        argv = ["--output-dir", str(tmp_path), "ampute", str(complete_csv), "--mechanism", "mar"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.strip() == (
            "configuration error: MAR cond_cols (0, 1, 2, 3) need at least 5 columns; "
            "the table has 2"
        )
        assert not list(tmp_path.glob("amputed_*"))

    def test_benchmark_mar_on_too_narrow_table(self, tmp_path, capsys):
        cfg = {
            "benchmark": {
                "synthetic": {"n": 30, "p": 3},
                "mechanisms": [{"mechanism": "mar"}],
                "methods": [{"kind": "mean"}],
                "mc_repeats": 2,
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["--config", str(cfg_path), "--output-dir", str(tmp_path), "benchmark"]
        assert run(argv) == 1
        self.assert_one_line(capsys)

    def test_mnar_deleting_a_whole_column_writes_nothing(self, tmp_path, complete_csv, capsys):
        # the default MNAR line clamp(-1.5 + 3 x, 0, 1) deletes every value above 0.83
        argv = ["--output-dir", str(tmp_path), "ampute", str(complete_csv), "--mechanism", "mnar"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "column 'a'" in err
        assert not list(tmp_path.glob("amputed_*"))

    def test_single_level_text_column_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,x\n2,x\n3,x\n4,x\n")
        assert run(["--output-dir", str(tmp_path), "impute", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == (
            f"data error: {path}: column 'b' has 1 distinct level(s); "
            "a binary or categorical column needs at least 2"
        )

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_input_cell_is_data_error(self, tmp_path, token, capsys):
        path = tmp_path / "x.csv"
        path.write_text(f"a,b\n1,2\n3,{token}\n5,\n")
        assert run(["--output-dir", str(tmp_path), "impute", str(path)]) == 2
        self.assert_one_line(capsys)


CSV_TOKENS = ["1", "-2.5", "0", "3e2", "x", "y", "z", "", "NA", "inf", "-inf", "nan"]


@st.composite
def small_csvs(draw):
    """Up to 12 rows and 4 columns of numeric, text, empty and non-finite
    tokens; some rows may have a field too many or too few."""
    p = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(CSV_TOKENS), min_size=p, max_size=p),
            min_size=0,
            max_size=12,
        )
    )
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    lines = [",".join("abcd"[:p])] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


class TestImputeProperty:
    """Whatever a small CSV holds, ``gcmi impute`` ends in a documented exit
    code, and a failure is one line on stderr, never a traceback."""

    TINY = {
        "gcmi": {"m_imputations": 2, "max_chain_iters": 1},
        "train": {**TINY_TRAIN, "max_epochs": 1, "batch_size": 8},
    }

    @given(text=small_csvs())
    @settings(max_examples=60, deadline=None)
    def test_exit_code_and_one_line(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "in.csv").write_text(text)
            (tmp / "cfg.json").write_text(json.dumps(self.TINY))
            argv = ["--config", str(tmp / "cfg.json"), "--output-dir", str(tmp / "out"),
                    "impute", str(tmp / "in.csv")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
        assert_documented_exit(code, err.getvalue())


def _tables() -> tuple[str, str]:
    """A complete 40 x 5 CSV and a copy with about a fifth of its cells empty."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 5)).round(3)
    holes = rng.random(X.shape) < 0.2
    header = "a,b,c,d,e\n"
    complete = header + "".join(",".join(map(str, row)) + "\n" for row in X)
    amputed = header + "".join(
        ",".join("" if h else str(v) for v, h in zip(row, hrow)) + "\n"
        for row, hrow in zip(X, holes)
    )
    return complete, amputed


# the tiny criterion-9 pipeline with every schema key spelled out, so each
# key path can be replaced; the output directory comes from the flag
PIPELINE = {
    "seed": 3,
    "threads": 1,
    "train": {
        **TINY_TRAIN, "max_epochs": 4, "lr_generator": 0.001, "lr_discriminator": 0.0005,
        "l2": 0.0001, "acc_penalty_weight": 1.0, "early_stop_patience": 50,
        "early_stop_tol": 0.0001,
    },
    "gcmi": {"max_chain_iters": 1, "m_imputations": 2},
    "simulate": {"n": 40, "p": 4, "rho": 0.3, "sigma2": 1.0, "noise_sd": 1.0, "alpha": None,
                 "out": "synthetic.csv"},
    "ampute": {"input": "synthetic.csv", "mechanism": "mcar", "rate": 0.3, "b0": -1.5, "b1": 3.0,
               "layout": "elementwise", "cond_cols": [0, 1, 2, 3], "target_cols": None,
               "out_prefix": "amputed"},
    "impute": {"input": "amputed_values.csv", "out_prefix": "imputed"},
    "benchmark": {"data": "synthetic", "synthetic": {"n": 30, "p": 5},
                  "mechanisms": [{"mechanism": "mcar", "rate": 0.3}],
                  "methods": [{"kind": "mean"}], "mc_repeats": 2, "normalized": True,
                  "dump_raw": False, "out_prefix": "benchmark"},
}


def _key_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, (*path, key))


NAMES = st.text("abxyz", max_size=4)  # no separators, so a path stays in its directory


def _nested(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=2)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.sampled_from([-1, 0, 1, 3])
    | st.sampled_from([-1e308, -0.5, 0.5, 1e308, float("inf"), float("nan")])
    | NAMES,
    _nested,
    max_leaves=4,
)


def _like(default):
    """Values of the default's own JSON type, in range or out of it."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.sampled_from([-1, 0, 1, 3])
    if isinstance(default, float):
        return st.sampled_from([-1e308, -1.0, 0.0, 0.5, 2.0, 1e308])
    if isinstance(default, str):
        return NAMES | st.sampled_from(["mar", "mnar", "blockwise", "gcmi", "external"])
    return JSON_VALUES


def _change(path):
    node = PIPELINE
    for key in path:
        node = node[key]
    return st.tuples(st.just(path), _like(node) | JSON_VALUES)


CHANGES = st.sampled_from(list(_key_paths(PIPELINE))).flatmap(_change)


def assert_documented_exit(code, err):
    assert code in (0, 1, 2, 3)
    if code:
        assert len(err.strip().splitlines()) == 1, err
        assert "Traceback" not in err


class TestConfigProperty:
    """Whatever one or two config keys hold, every subcommand ends in a
    documented exit code, and a failure is one line on stderr."""

    COMPLETE, AMPUTED = _tables()

    @given(
        command=st.sampled_from(["simulate", "ampute", "impute", "benchmark"]),
        changes=st.lists(CHANGES, min_size=1, max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_exit_code_and_one_line(self, command, changes):
        config = json.loads(json.dumps(PIPELINE))
        for path, value in sorted(changes, key=lambda c: -len(c[0])):  # a section after its keys
            node = config
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            out.mkdir()
            (out / "synthetic.csv").write_text(self.COMPLETE)
            (out / "amputed_values.csv").write_text(self.AMPUTED)
            (Path(tmp) / "cfg.json").write_text(json.dumps(config))
            argv = ["--config", str(Path(tmp) / "cfg.json"), "--output-dir", str(out), command]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
        assert_documented_exit(code, err.getvalue())


class TestConfigParsing:
    def test_empty_config_is_valid_with_documented_defaults(self):
        cfg = parse_config({})
        train = cfg.gcmi.train
        assert cfg.seed == 0
        assert train.lr_generator == 0.001
        assert train.lr_discriminator == 0.0005
        assert train.l2 == 0.0001
        assert train.gen_iters_per_cycle == 50
        assert train.disc_iters_per_cycle == 10
        assert train.batch_size == 256
        assert train.max_epochs == 10_000
        assert cfg.gcmi.max_chain_iters == 20
        assert cfg.gcmi.m_imputations == 5

    def test_unknown_keys_rejected_everywhere(self):
        from gcmi import ConfigError

        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"simulate": {"nn": 5}})
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"train": {"lr": 0.1}})
        for removed in REMOVED_KEYS:
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(removed)

    def test_overrides_merge_before_the_single_parse(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"seed": 1, "threads": 2, "simulate": {"n": 12}}))
        cfg = load_config(cfg_path, {"seed": 5})
        assert (cfg.seed, cfg.gcmi.seed, cfg.gcmi.train.seed) == (5, 5, 5)
        assert cfg.simulate.spec.seed == 5
        assert cfg.gcmi.workers == 2

    @pytest.mark.parametrize("key", ["normalized", "dump_raw"])
    def test_benchmark_flags_accept_bool(self, key):
        job = parse_config({"benchmark": {key: False}}).benchmark
        assert (job.spec.normalized, job.dump_raw) == (key != "normalized", False)

    def test_section_seeds_default_to_root(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"seed": 99, "simulate": {"n": 10, "p": 3}}))
        cfg = load_config(cfg_path)
        assert cfg.simulate.spec.seed == 99

    def test_cli_seed_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"seed": 1, "simulate": {"n": 12, "p": 3}}))
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        run(["--config", str(cfg_path), "--output-dir", str(out1), "--seed", "2", "simulate"])
        run(["--output-dir", str(out2), "--seed", "2", "simulate", "--n", "12", "--p", "3"])
        assert (out1 / "synthetic.csv").read_bytes() == (out2 / "synthetic.csv").read_bytes()
