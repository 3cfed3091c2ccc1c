import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rtgle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_quantiles_reference_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "quantiles",
                           "--params", "0.5,0.5,1.2,0.2")
    assert code == 0
    assert "1.1199" in out and "1.0325" in out and "0.0728" in out


def test_table_moments_reference_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "moments",
                           "--params", "0.5,0.5,1.2,0.2")
    assert code == 0
    assert "1.2058" in out and "0.5243" in out and "3.0496" in out


def test_table_moments_row_runs_one_expectation(capsys, monkeypatch):
    # E(X^1..4) on one node set; V(X), skewness and kurtosis come from those
    # moments
    from rtgle import properties
    calls = []

    def counted(params, fns):
        calls.append(len(fns))
        return expect(params, fns)
    expect = properties._expect
    monkeypatch.setattr(properties, "_expect", counted)
    code, out, _ = run_cli(capsys, "table", "--kind", "moments",
                           "--params", "0.5,0.5,1.2,0.2;1,0.5,1.2,0.2")
    assert code == 0 and "3.0496" in out
    assert calls == [4, 4]


def test_table_multiple_rows_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "quantiles", "--format",
                           "csv", "--params", "0.5,0.5,1.2,0.2;1,0.5,1.2,0.2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3          # header + 2 rows
    assert rows[0][:4] == ["alpha", "beta", "gamma", "p"]


def test_table_json_is_a_list_for_one_row(capsys):
    # table prints a list whatever its row count; one row is a one-row list
    code, out, _ = run_cli(capsys, "table", "--kind", "quantiles",
                           "--params", "0.5,0.5,1.2,0.2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 1
    assert doc[0]["alpha"] == 0.5


def test_table_json_with_no_row_left_is_empty_list(capsys):
    # the only row overflows, so it is dropped with a note on stderr
    code, out, err = run_cli(capsys, "table", "--kind", "moments",
                             "--params", "1,0,0.01,0.5", "--format", "json")
    assert code == 0
    assert json.loads(out) == []
    assert err.startswith("row (1.0, 0.0, 0.01, 0.5)")


def test_sample_deterministic(capsys):
    args = ("sample", "--params", "1,0,1,0", "--n", "3", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 3


def test_sample_curves_csv(capsys):
    code, out, _ = run_cli(capsys, "sample", "--params", "0.5,0.5,1.2,0.2",
                           "--n", "2", "--seed", "1", "--curves")
    assert code == 0
    assert "x,pdf,cdf" in out


def test_sample_curves_json_is_one_object(capsys):
    args = ("sample", "--params", "0.5,0.5,1.2,0.2", "--n", "5", "--seed",
            "1", "--format", "json")
    code, out, _ = run_cli(capsys, *args, "--curves")
    assert code == 0
    doc = json.loads(out)   # the whole of stdout
    assert set(doc) == {"draws", "curves"}
    code, draws, _ = run_cli(capsys, *args)
    assert code == 0 and doc["draws"] == json.loads(draws)
    assert len(doc["curves"]) == 200
    assert all(set(point) == {"x", "pdf", "cdf"} for point in doc["curves"])
    assert [p["x"] for p in doc["curves"]] == sorted(
        p["x"] for p in doc["curves"])


def test_fit_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "fit", "--data", "embedded", "--method",
                           "mle", "--n-starts", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(("alpha", "beta", "gamma", "p", "objective")) <= set(doc)
    assert doc["minus2loglik"] == pytest.approx(2.0 * doc["objective"])


def test_fit_method_choices(capsys):
    code, out, _ = run_cli(capsys, "fit", "--data", "embedded", "--method",
                           "lse", "--n-starts", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["method"] == "lse"


def test_gof_text_and_outliers(capsys):
    code, out, err = run_cli(capsys, "gof", "--data", "embedded", "--params",
                             "0.1561,0.0411,0.6199,0.4068", "--flag-outliers")
    assert code == 0
    assert "ks" in out and "aic" in out
    assert "[47, 48, 49]" in err


def test_gof_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "gof", "--data", "embedded", "--params",
                           "0.5,0.5,1.2,0.2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for key in ("ks", "cvm", "ad", "p_ks", "p_cvm", "p_ad", "aic"):
        assert key in doc


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit"])                      # missing --data
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("fit", "--data", "embedded"),
    ("compare", "--data", "embedded"),
    ("gof", "--data", "embedded", "--params", "1,1,1,0.5"),
    ("sample", "--params", "1,1,1,0.5", "--n", "3")], ids=lambda a: a[0])
def test_negative_seed_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_data_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "fit", "--data", "/nonexistent/file.txt")
    assert code == 3
    assert "error" in err


def test_quantile_underflow_is_numeric_failure(capsys):
    # at gamma = 0.01 some of 10,000 draws have quantiles below the floats
    code, out, err = run_cli(capsys, "sample", "--params", "1,1,0.01,0.5",
                             "--n", "10000", "--seed", "1")
    assert code == 4
    assert out == "" and "smallest positive float" in err


def test_quantile_overflow_is_numeric_failure(capsys):
    # at alpha = 1e-300, gamma = 0.05 some of 100 draws lie above the floats
    code, out, err = run_cli(capsys, "sample", "--params", "1e-300,0,0.05,0",
                             "--n", "100", "--seed", "1")
    assert code == 4
    assert out == "" and "largest float" in err


def test_fit_json_reports_edges(capsys):
    # the embedded data's MLE sits on the p = 1 edge
    code, out, _ = run_cli(capsys, "fit", "--data", "embedded", "--format",
                           "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 1.0 and doc["converged"] is True
    assert doc["at_boundary"] == {"alpha": False, "beta": False,
                                  "gamma": False, "p": True}


def test_gof_bootstrap_quantile_underflow_is_numeric_failure(capsys):
    # a bootstrap replicate drawn from a gamma = 0.003 fit cannot be drawn
    code, out, err = run_cli(capsys, "gof", "--data", "embedded", "--params",
                             "1,1,0.003,0.5", "--bootstrap", "2")
    assert code == 4
    assert out == "" and "smallest positive float" in err


def test_bad_params_exit_code(capsys):
    code, _, err = run_cli(capsys, "gof", "--data", "embedded", "--params",
                           "1,2,3")
    assert code == 3


def test_negative_data_file_exit_code(tmp_path, capsys):
    f = tmp_path / "neg.txt"
    f.write_text("1.0\n-2.0\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(f))
    assert code == 3


def test_infinite_data_file_is_data_error(tmp_path, capsys):
    f = tmp_path / "inf.txt"
    f.write_text("1.0\n2.5\ninf\n0.7\n3.1\n1.8\n")
    for argv in (["fit"], ["compare"],
                 ["gof", "--params", "1,1,1,0.5"]):
        code, _, err = run_cli(capsys, *argv, "--data", str(f))
        assert code == 3, argv
        assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("gof", "--data", "embedded", "--params", "1,inf,1,0.5"),
    ("sample", "--params", "inf,0,1,0", "--n", "3"),
    ("table", "--kind", "quantiles", "--params", "1,1,inf,0.5")])
def test_infinite_params_are_data_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == "" and "finite" in err


def test_simulate_command(tmp_path, capsys):
    design = {"true_params": [1.2, 0.5, 1.5, 0.8], "sample_sizes": [50],
              "methods": ["mle"], "replicates": 2, "seed": 1}
    dfile = tmp_path / "design.json"
    dfile.write_text(json.dumps(design))
    out_base = str(tmp_path / "report")
    code, out, _ = run_cli(capsys, "simulate", "--design", str(dfile),
                           "--out", out_base)
    assert code == 0
    assert "MLE" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["cells"][0]["n"] == 50
    rows = list(csv.reader((tmp_path / "report.csv").open()))
    assert rows[0][0] == "n"
    assert len(rows) == 2


def _simulate_table(tmp_path, capsys, **design):
    """The stdout lines of rtgle simulate on design."""
    dfile = tmp_path / "design.json"
    dfile.write_text(json.dumps(design))
    code, out, _ = run_cli(capsys, "simulate", "--design", str(dfile))
    assert code == 0
    return out.splitlines()


def test_simulate_table_layout(tmp_path, capsys):
    lines = _simulate_table(
        tmp_path, capsys, true_params=[1.2, 0.5, 1.5, 0.8],
        sample_sizes=[50, 20], methods=["mle", "cme"], replicates=2, seed=1)
    labels = ("alpha", "beta", "gamma", "p")
    assert lines[0].split() == (["n", "method"]
                                + [f"bias({s})" for s in labels]
                                + [f"mse({s})" for s in labels]
                                + ["failed"])
    rows = [line.split() for line in lines[1:]]
    assert [r[:2] for r in rows] == [["50", "MLE"], ["50", "CME"],
                                     ["20", "MLE"], ["20", "CME"]]
    # right-aligned columns, 4-decimal cells, and the failed count
    assert len({len(line) for line in lines}) == 1
    assert all(len(c.split(".")[1]) == 4 for r in rows for c in r[2:10])
    assert all(r[10].isdigit() for r in rows)


def test_simulate_table_em_dash_when_every_fit_fails(tmp_path, capsys,
                                                     monkeypatch):
    import rtgle.sim as sim_mod
    from rtgle.estimate import AllStartsFailed

    def failing_fit_many(samples, methods, config=None):
        return [[AllStartsFailed("no start") for _ in methods]
                for _ in samples]
    monkeypatch.setattr(sim_mod, "fit_many", failing_fit_many)
    lines = _simulate_table(
        tmp_path, capsys, true_params=[1.2, 0.5, 1.5, 0.8],
        sample_sizes=[20], methods=["mle"], replicates=3, seed=1)
    assert lines[1].split() == ["20", "MLE"] + ["—"] * 8 + ["3"]


def test_simulate_bad_design(tmp_path, capsys):
    dfile = tmp_path / "design.json"
    dfile.write_text("{\"true_params\": [1, 1]}")
    code, _, err = run_cli(capsys, "simulate", "--design", str(dfile))
    assert code == 3


def test_simulate_negative_seed_is_bad_design(tmp_path, capsys):
    dfile = tmp_path / "design.json"
    dfile.write_text(json.dumps({"true_params": [1.2, 0.5, 1.5, 0.8],
                                 "sample_sizes": [20], "methods": ["mle"],
                                 "replicates": 2, "seed": -3}))
    code, out, err = run_cli(capsys, "simulate", "--design", str(dfile))
    assert code == 3
    assert out == "" and "bad design" in err and "seed" in err


@pytest.mark.parametrize("field,value", [("sample_sizes", [30.9]),
                                         ("replicates", 2.7), ("seed", 1.5),
                                         ("replicates", "2")])
def test_simulate_non_integer_setting_is_bad_design(tmp_path, capsys, field,
                                                    value):
    # a size, count or seed that is not an integer is refused, not
    # truncated
    design = {"true_params": [1.2, 0.5, 1.5, 0.8], "sample_sizes": [30],
              "methods": ["mle"], "replicates": 2, "seed": 1, field: value}
    dfile = tmp_path / "design.json"
    dfile.write_text(json.dumps(design))
    code, out, err = run_cli(capsys, "simulate", "--design", str(dfile))
    assert code == 3
    assert out == "" and "bad design" in err and field in err


@pytest.mark.parametrize("sizes,methods", [([20, 20], ["mle"]),
                                           ([20], ["mle", "mle"])])
def test_simulate_repeated_design_entry_is_bad_design(tmp_path, capsys, sizes,
                                                      methods):
    dfile = tmp_path / "design.json"
    dfile.write_text(json.dumps({"true_params": [1.2, 0.5, 1.5, 0.8],
                                 "sample_sizes": sizes, "methods": methods,
                                 "replicates": 2}))
    code, out, err = run_cli(capsys, "simulate", "--design", str(dfile))
    assert code == 3
    assert out == "" and "bad design" in err and "repeat" in err


def test_compare_command(capsys):
    code, out, err = run_cli(capsys, "compare", "--data", "embedded",
                             "--n-starts", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "model"
    assert len(rows) == 9          # header + 8 models
    # sorted by AIC
    aics = [float(r[3]) for r in rows[1:]]
    assert aics == sorted(aics)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "vals.txt"
    code, out, _ = run_cli(capsys, "sample", "--params", "1,0,1,0", "--n",
                           "2", "--seed", "3", "--out", str(target))
    assert code == 0
    assert len(target.read_text().strip().splitlines()) == 2


@pytest.mark.parametrize("content", ["1.3\n", "2.0 2.0 2.0 2.0 2.0\n"])
def test_degenerate_data_exit_code(tmp_path, capsys, content):
    f = tmp_path / "degenerate.txt"
    f.write_text(content)
    for command in ("fit", "compare"):
        code, _, err = run_cli(capsys, command, "--data", str(f))
        assert code == 3, command
        assert "distinct" in err


@pytest.fixture
def trimmed_file(tmp_path):
    from rtgle.datasets import flag_outliers_iqr, load_dataset
    full = load_dataset("embedded").values
    path = tmp_path / "trimmed.txt"
    path.write_text("\n".join(repr(float(v)) for v in
                              np.delete(full, flag_outliers_iqr(full))))
    return str(path)


@pytest.mark.parametrize("seed,expected", [("0", (0.6, 0.6, 0.8)),
                                           ("3", (0.8, 0.8, 0.8))])
def test_gof_bootstrap_pinned(capsys, trimmed_file, seed, expected):
    # p-values of a 4-replicate bootstrap at the reference estimate, as the
    # per-replicate refit loop gave them
    from _reference import REAL_DATA_MLE
    code, out, _ = run_cli(capsys, "gof", "--data", trimmed_file, "--params",
                           ",".join(map(repr, REAL_DATA_MLE)), "--bootstrap",
                           "4", "--seed", seed, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["p_ks"], doc["p_cvm"], doc["p_ad"]) == expected
    assert doc["p_value_mode"] == "bootstrap(4)"


def test_gof_bootstrap_refits_in_one_search(capsys, monkeypatch):
    # every replicate is drawn once and all are refitted in one fit_many
    from rtgle import cli
    calls = {"sample": 0, "fit_many": []}

    def counted_sample(*args, **kwargs):
        calls["sample"] += 1
        return sample(*args, **kwargs)

    def counted_fit_many(samples, *args, **kwargs):
        calls["fit_many"].append(len(samples))
        return fit_many(samples, *args, **kwargs)

    sample, fit_many = cli.sample, cli.fit_many
    monkeypatch.setattr(cli, "sample", counted_sample)
    monkeypatch.setattr(cli, "fit_many", counted_fit_many)
    code, out, _ = run_cli(capsys, "gof", "--data", "embedded", "--params",
                           "0.1561,0.0411,0.6199,0.4068", "--bootstrap", "7",
                           "--format", "json")
    assert code == 0
    assert calls == {"sample": 7, "fit_many": [7]}
    assert json.loads(out)["p_value_mode"] == "bootstrap(7)"


@pytest.mark.parametrize("argv", [
    ("gof", "--data", "embedded", "--params", "0.1561,0.0411,0.6199,0.4068",
     "--bootstrap", "-3"),
    ("fit", "--data", "embedded", "--n-starts", "0"),
    ("compare", "--data", "embedded", "--n-starts", "0"),
    ("sample", "--params", "1,0,1,0", "--n", "0")], ids=lambda a: a[0])
def test_count_option_below_minimum_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("simulate", "--design", "d.json", "--format", "json"),
    ("simulate", "--design", "d.json", "--seed", "1"),
    ("table", "--kind", "quantiles", "--params", "1,1,1,0.5", "--seed", "1")],
    ids=lambda a: f"{a[0]}{a[-2]}")
def test_option_a_command_ignores_is_usage_error(capsys, argv):
    # simulate's design file carries the seed and its table is always text;
    # a table draws nothing at random
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_gof_bootstrap_raises_first_failed_refit(capsys, monkeypatch):
    # as a refit loop would: the first replicate whose refit failed decides
    from rtgle import cli
    from rtgle.estimate import AllStartsFailed, DegenerateData

    def failing_fit_many(samples, methods, config):
        rows = fit_many(samples, methods, config)
        rows[1] = [DegenerateData("replicate 1")]
        rows[2] = [AllStartsFailed("replicate 2")]
        return rows

    fit_many = cli.fit_many
    monkeypatch.setattr(cli, "fit_many", failing_fit_many)
    code, _, err = run_cli(capsys, "gof", "--data", "embedded", "--params",
                           "0.1561,0.0411,0.6199,0.4068", "--bootstrap", "3")
    assert code == 3
    assert "replicate 1" in err


_IMPORT_GRAPH = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import rtgle
from rtgle import cli
for name, argv in (
        ("sample", ["sample", "--params", "1,0,1,0", "--n", "100"]),
        ("fit-lse", ["fit", "--data", "embedded", "--method", "lse",
                     "--n-starts", "2"]),
        ("fit-mle", ["fit", "--data", "embedded", "--method", "mle",
                     "--n-starts", "2"]),
        ("table", ["table", "--kind", "quantiles",
                   "--params", "0.5,0.5,1.2,0.2"]),
        ("moments", ["table", "--kind", "moments",
                     "--params", "0.5,0.5,1.2,0.2"]),
        ("gof", ["gof", "--data", "embedded",
                 "--params", "0.1561,0.0411,0.6199,0.4068",
                 "--bootstrap", "2"])):
    out = os.path.join(sys.argv[2], name + ".txt")
    assert cli.main(argv + ["--out", out]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def test_scipy_free_commands_load_no_scipy(tmp_path):
    # pytest's own set-up loads scipy, so the import graph is read in a
    # fresh interpreter
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH, src,
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=60, check=True)
    assert json.loads(done.stdout) == []
    assert {p.name for p in tmp_path.iterdir()} \
        == {"sample.txt", "fit-lse.txt", "fit-mle.txt", "table.txt",
            "moments.txt", "gof.txt"}


_INTEGRATE_GRAPH = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from rtgle import cli, properties
from rtgle.distribution import RtgleParams
assert 0.0 < properties.renyi_entropy(RtgleParams(0.5, 0.5, 1.2, 0.2), 2.0)
for name, argv in (
        ("compare", ["compare", "--data", "embedded", "--n-starts", "2"]),
        ("gof", ["gof", "--data", "embedded",
                 "--params", "0.1561,0.0411,0.6199,0.4068"])):
    out = os.path.join(sys.argv[2], name + ".json")
    assert cli.main(argv + ["--format", "json", "--out", out]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("scipy.integrate"))))
"""


def test_cli_import_loads_no_scipy_optimize():
    # the fit engine needs no scipy optimizer; setup time stays import-free
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import rtgle.cli; print('scipy.optimize' in sys.modules)", src],
        capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_asymptotic_p_values_load_no_scipy_integrate(tmp_path):
    # the Anderson-Darling limiting cdf and Renyi entropy run on the
    # moments' trapezoid rule
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", _INTEGRATE_GRAPH, src,
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=60, check=True)
    assert json.loads(done.stdout) == []
    report = json.loads((tmp_path / "gof.json").read_text())
    assert report["p_value_mode"] == "asymptotic"
    assert 0.0 < report["p_ad"] < 1.0
    rows = json.loads((tmp_path / "compare.json").read_text())
    assert len(rows) == 8 and all(0.0 <= r["p(AD)"] <= 1.0 for r in rows)
