import csv
import io
import json

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


def test_table_multiple_rows_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "quantiles", "--format",
                           "csv", "--params", "0.5,0.5,1.2,0.2;1,0.5,1.2,0.2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3          # header + 2 rows
    assert rows[0][:4] == ["alpha", "beta", "gamma", "p"]


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


def test_data_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "fit", "--data", "/nonexistent/file.txt")
    assert code == 3
    assert "error" in err


def test_bad_params_exit_code(capsys):
    code, _, err = run_cli(capsys, "gof", "--data", "embedded", "--params",
                           "1,2,3")
    assert code == 3


def test_negative_data_file_exit_code(tmp_path, capsys):
    f = tmp_path / "neg.txt"
    f.write_text("1.0\n-2.0\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(f))
    assert code == 3


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


def test_simulate_bad_design(tmp_path, capsys):
    dfile = tmp_path / "design.json"
    dfile.write_text("{\"true_params\": [1, 1]}")
    code, _, err = run_cli(capsys, "simulate", "--design", str(dfile))
    assert code == 3


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
    code, _, err = run_cli(capsys, "fit", "--data", str(f))
    assert code == 3
    assert "distinct" in err
