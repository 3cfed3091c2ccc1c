import json

import numpy as np
import pytest

from rtgle import cli
from rtgle.distribution import RtgleParams, sample
from rtgle.estimate import EstimationMethod, fit_many
from rtgle.sim import (SimCell, SimDesign, SimReport, default_sim_optimizer,
                       report_to_table, run_design)

TRUE = RtgleParams(1.2, 0.5, 1.5, 0.8)


def _design(**kw):
    base = dict(true_params=TRUE, sample_sizes=(50,),
                methods=(EstimationMethod.MLE,), replicates=2, seed=0)
    base.update(kw)
    return SimDesign(**base)


def test_design_validation():
    with pytest.raises(ValueError):
        _design(replicates=0)
    with pytest.raises(ValueError):
        _design(sample_sizes=(5,))
    with pytest.raises(ValueError):
        _design(sample_sizes=())


def test_single_replicate_equals_single_fit():
    design = _design(replicates=1, seed=3)
    report = run_design(design)
    cell = report.cell(50, EstimationMethod.MLE)
    # reproduce the one replicate by hand
    from rtgle.sim import _replicate_seed
    x = sample(TRUE, 50, seed=_replicate_seed(3, 0, 0))
    config = default_sim_optimizer(TRUE, seed=3)
    r = fit_many([x], (EstimationMethod.MLE,), config)[0][0]
    err = np.array(r.params.as_tuple()) - np.array(TRUE.as_tuple())
    assert np.allclose(cell.bias, err, rtol=1e-12)
    assert np.allclose(cell.mse, err * err, rtol=1e-12)
    assert cell.n_used == 1


def test_replicates_equal_fits_one_at_a_time():
    # the lockstep search gives every (replicate, method) fit the bits of
    # the same fit on its own
    from rtgle.sim import _replicate_seed
    design = _design(replicates=20, seed=5, methods=tuple(EstimationMethod))
    report = run_design(design)
    config = default_sim_optimizer(TRUE, seed=5)
    samples = [sample(TRUE, 50, seed=_replicate_seed(5, 0, rep))
               for rep in range(20)]
    for m in EstimationMethod:
        err_sum, err2_sum = np.zeros(4), np.zeros(4)
        for x in samples:
            r = fit_many([x], (m,), config)[0][0]
            err = np.array(r.params.as_tuple()) - np.array(TRUE.as_tuple())
            err_sum += err
            err2_sum += err * err
        cell = report.cell(50, m)
        assert (cell.n_used, cell.n_failed_fits) == (20, 0)
        assert cell.bias == tuple((err_sum / 20).tolist())
        assert cell.mse == tuple((err2_sum / 20).tolist())


def test_determinism():
    design = _design(replicates=3, seed=11,
                     methods=(EstimationMethod.LSE, EstimationMethod.CME))
    r1 = run_design(design)
    r2 = run_design(design)
    for key in r1.cells:
        assert r1.cells[key].bias == r2.cells[key].bias
        assert r1.cells[key].mse == r2.cells[key].mse


def test_mse_jensen_bound():
    design = _design(replicates=5, seed=2)
    report = run_design(design)
    cell = report.cell(50, EstimationMethod.MLE)
    for b, m in zip(cell.bias, cell.mse):
        assert m >= b * b - 1e-12


def test_p_zero_truth_estimator_respects_bounds():
    tp = RtgleParams(1.0, 0.5, 1.2, 0.0)
    design = SimDesign(true_params=tp, sample_sizes=(50,),
                       methods=(EstimationMethod.MLE,), replicates=3, seed=4)
    report = run_design(design)
    cell = report.cell(50, EstimationMethod.MLE)
    # bias of p-hat is mean(p-hat) - 0, and p-hat >= 0 always
    assert cell.bias[3] >= 0.0


@pytest.mark.parametrize("truth", [(1.0, 0.5, 1.2, 0.0), (1.0, 0.5, 1.2, 1.0),
                                   (0.0, 0.5, 1.2, 0.5), (1.0, 0.0, 1.2, 0.5)],
                         ids=["p=0", "p=1", "alpha=0", "beta=0"])
def test_boundary_truth_gives_finite_cells(truth):
    # the search starts at the truth, an edge coordinate at the moment start
    design = SimDesign(true_params=RtgleParams(*truth), sample_sizes=(20,),
                       methods=(EstimationMethod.MLE,), replicates=2, seed=1)
    cell = run_design(design).cell(20, EstimationMethod.MLE)
    assert cell.n_used == 2
    assert np.all(np.isfinite(cell.bias + cell.mse))


def test_cli_simulates_boundary_truth(tmp_path, capsys):
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"true_params": [1.0, 0.0, 1.2, 0.5],
                                "sample_sizes": [20], "methods": ["mle"],
                                "replicates": 2, "seed": 1}))
    assert cli.main(["simulate", "--design", str(path)]) == 0
    assert "MLE" in capsys.readouterr().out


def test_report_table_layout():
    design = _design(replicates=2, seed=1)
    text = report_to_table(run_design(design))
    lines = text.splitlines()
    assert len(lines) == 2
    header = lines[0].split()
    assert header[:2] == ["n", "method"]
    assert len(header) == 11
    assert "MLE" in lines[1]


def test_report_table_em_dash_for_empty():
    report = SimReport(design=_design(replicates=1))
    report.cells[(50, "mle")] = SimCell(
        bias=(float("nan"),) * 4, mse=(float("nan"),) * 4,
        n_used=0, n_failed_fits=1)
    text = report_to_table(report)
    assert "—" in text


def test_failed_fits_counted_not_fatal():
    report = run_design(_design(replicates=2, seed=7))
    cell = report.cell(50, EstimationMethod.MLE)
    assert cell.n_used + cell.n_failed_fits == 2


def test_only_typed_fit_errors_count_as_failed(monkeypatch):
    import rtgle.sim as sim_mod
    from rtgle.estimate import DegenerateData

    # fit_many returns a typed error in place of each fit that raised one
    def degenerate(samples, methods, config):
        return [[DegenerateData("fewer than two distinct values")]
                * len(methods) for _ in samples]

    monkeypatch.setattr(sim_mod, "fit_many", degenerate)
    cell = run_design(_design(replicates=2)).cell(50, EstimationMethod.MLE)
    assert (cell.n_used, cell.n_failed_fits) == (0, 2)

    def bug(*args, **kwargs):
        raise ValueError("a programming error, not a failed fit")

    monkeypatch.setattr(sim_mod, "fit_many", bug)
    with pytest.raises(ValueError, match="programming error"):
        run_design(_design(replicates=2))
