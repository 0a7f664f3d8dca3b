"""Command-line contract: formats, determinism, config handling, exit codes."""

import json

import numpy as np
import pytest

from mingsim import cli


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# ming verify
# ---------------------------------------------------------------------------


def test_ming_verify_table(tmp_path):
    out = tmp_path / "orbits.csv"
    assert run(["ming", "verify", "--n", "5", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "orbit_id,dimension,residual"
    assert lines[1].startswith("-1,2,")
    # (2^5 - 2)/5 = 6 orbit rows plus the fixed block row
    assert len(lines) == 1 + 1 + 6
    assert all(float(line.split(",")[2]) < 1e-9 for line in lines[1:])


def test_ming_verify_rejects_composite():
    assert run(["ming", "verify", "--n", "4"]) == 2


def test_ming_verify_keeps_dense_bound(capsys):
    # the table has one row per orbit, so it stays within the dense bound
    assert run(["ming", "verify", "--n", "17"]) == 2
    assert "dense-mode bound" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# observable fn
# ---------------------------------------------------------------------------


def test_observable_fn_on_basis_states(tmp_path, capsys):
    state = tmp_path / "state.csv"
    state.write_text("index,re,im\n3,1,0\n", encoding="utf-8")
    assert run(["observable", "fn", "--n", "5", "--epsilon", "0", "--state", str(state)]) == 0
    assert capsys.readouterr().out.strip() == "0.0"
    state.write_text("index,re,im\n7,1,0\n", encoding="utf-8")
    assert run(["observable", "fn", "--n", "5", "--epsilon", "0", "--state", str(state)]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_observable_fn_input_validation(tmp_path, capsys):
    state = tmp_path / "state.csv"
    state.write_text("index,re,im\n99,1,0\n", encoding="utf-8")
    assert run(["observable", "fn", "--n", "5", "--epsilon", "0", "--state", str(state)]) == 2
    state.write_text("index,re,im\n3,0.5,0\n", encoding="utf-8")  # not normalized
    assert run(["observable", "fn", "--n", "5", "--epsilon", "0", "--state", str(state)]) == 2
    assert run(["observable", "fn", "--n", "5", "--epsilon", "0", "--state", str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# born sweep
# ---------------------------------------------------------------------------


def test_born_sweep_row_count_and_values(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["born", "sweep", "--a0", "0.6,0", "--a1", "0,0.8", "--n", "5,7,11,13", "--epsilon", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,mean,born_weight,abs_error"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert int(first[0]) == 5
    assert float(first[1]) == pytest.approx(0.64 * (1 - 1 / 5), abs=1e-12)


def test_born_sweep_rejects_composite(tmp_path, capsys):
    assert run(["born", "sweep", "--n", "4,5", "--out", str(tmp_path / "x.csv")]) == 2
    assert "n must be prime" in capsys.readouterr().err


def test_born_sweep_rejects_non_finite_amplitude(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["born", "sweep", "--a0", "nan,0", "--a1", "0,1", "--n", "5,7", "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_born_sweep_requires_out(capsys):
    assert run(["born", "sweep", "--n", "5"]) == 2
    capsys.readouterr()


def test_byte_identical_reruns(tmp_path):
    args = ["born", "sweep", "--a0", "1,0", "--a1", "1,1", "--n", "5,7", "--epsilon", "0.2", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + [str(a)]) == 0
    assert run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    mc = ["fkm", "autocorr", "--n", "8", "--mode", "mc", "--samples", "3000", "--seed", "7", "--out"]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert run(mc + [str(c)]) == 0
    assert run(mc + [str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_sidecar_provenance(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["born", "sweep", "--n", "5,7", "--seed", "99", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "sweep.csv.provenance.json").read_text(encoding="utf-8"))
    assert sidecar["config"]["command"] == "born sweep"
    assert sidecar["config"]["seed"] == 99
    assert sidecar["config"]["params"]["n"] == [5, 7]
    assert "wall_clock_utc" in sidecar and "version" in sidecar


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"a0": [1, 0], "a1": [0, 1], "n": [5, 7], "epsilon": 0.0}), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert run(["born", "sweep", "--config", str(cfg), "--n", "11", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[1].startswith("11,")


def test_config_unknown_field_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"frobnicate": 1}), encoding="utf-8")
    assert run(["born", "sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_limit_compare_report(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps({"a0": [0.6, 0], "a1": [0, 0.8], "n": [5, 7, 11, 13, 101, 1009], "seed": 3}),
        encoding="utf-8",
    )
    rpt = tmp_path / "report.json"
    assert run(["limit", "compare", "--config", str(cfg), "--out", str(rpt)]) == 0
    report = json.loads(rpt.read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert report["fitted_exponent"] == pytest.approx(-1.0, abs=0.05)
    assert report["fitted_intercept"] == pytest.approx(0.64, abs=1e-9)
    assert (tmp_path / "report.json.provenance.json").exists()


# ---------------------------------------------------------------------------
# fkm commands
# ---------------------------------------------------------------------------


def test_autocorr_analytic_curve(tmp_path):
    out = tmp_path / "curve.csv"
    code = run(["fkm", "autocorr", "--n", "16", "--beta", "2.0", "--tau-steps", "50", "--mode", "analytic", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "tau,value,kind,n,beta,seed"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "0.5" and first[2] == "phase-analytic"


def test_autocorr_time_mode_kind(tmp_path):
    out = tmp_path / "curve.csv"
    code = run([
        "fkm", "autocorr", "--n", "16", "--mode", "time", "--tau-max", "10", "--tau-steps", "40",
        "--horizon-periods", "50", "--out", str(out),
    ])
    assert code == 0
    assert ",time-trajectory," in out.read_text(encoding="utf-8").splitlines()[1]


def test_autocorr_svg(tmp_path):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    code = run(["fkm", "autocorr", "--n", "8", "--mode", "analytic", "--out", str(out), "--svg", str(svg)])
    assert code == 0
    body = svg.read_text(encoding="utf-8")
    assert body.startswith("<svg ") and "<polyline" in body


def test_autocorr_validation(tmp_path, capsys):
    assert run(["fkm", "autocorr", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["fkm", "autocorr", "--beta", "-1", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["fkm", "autocorr", "--tau-steps", "1", "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


def test_autocorr_time_mode_validation(tmp_path, capsys):
    base = ["fkm", "autocorr", "--n", "16", "--mode", "time", "--out", str(tmp_path / "x.csv")]
    assert run(base + ["--oversample", "0"]) == 2
    assert run(base + ["--horizon-periods", "0.001"]) == 2
    assert run(base + ["--horizon-periods", "inf"]) == 2
    assert not (tmp_path / "x.csv").exists()
    capsys.readouterr()


def test_oufit_roundtrip(tmp_path, capsys):
    out = tmp_path / "expo.csv"
    tau = np.linspace(0.0, 20.0, 200)
    rows = "\n".join(f"{float(t)!r},{float(np.exp(-2.0 * t))!r},phase-analytic,1,1.0,0" for t in tau)
    out.write_text("tau,value,kind,n,beta,seed\n" + rows + "\n", encoding="utf-8")
    assert run(["fkm", "oufit", "--in", str(out)]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["gamma"] == pytest.approx(2.0, abs=1e-9)
    assert fit["residual"] < 1e-10


def test_oufit_degenerate_is_numeric_failure(tmp_path, capsys):
    out = tmp_path / "zero.csv"
    out.write_text("tau,value\n" + "\n".join(f"{t / 10},0.0" for t in range(40)) + "\n", encoding="utf-8")
    assert run(["fkm", "oufit", "--in", str(out)]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit codes and plumbing
# ---------------------------------------------------------------------------


def test_io_error_exit_code(capsys):
    assert run(["born", "sweep", "--n", "5", "--out", "/nonexistent-dir/x.csv"]) == 4
    capsys.readouterr()


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_reproduce_subset(capsys):
    assert run(["reproduce", "--only", "A1"]) == 0
    out = capsys.readouterr().out
    assert "A1  PASS" in out
    assert run(["reproduce", "--only", "A9"]) == 2
    capsys.readouterr()


def test_reproduce_fault_subset(capsys, tmp_path):
    rpt = tmp_path / "report.json"
    code = run(["reproduce", "--only", "A2", "--inject-fault", "ming-block", "--out", str(rpt)])
    assert code == 3
    assert "A2  FAIL" in capsys.readouterr().out
    report = json.loads(rpt.read_text(encoding="utf-8"))
    assert report["passed"] is False
    assert report["faults"] == ["ming-block"]


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_reproduce_report_is_strict_json(capsys, tmp_path):
    rpt = tmp_path / "report.json"
    assert run(["reproduce", "--only", "A2", "--out", str(rpt)]) == 0
    capsys.readouterr()
    report = _strict_json(rpt.read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert report["results"][0]["passed"] is True
    sidecar = _strict_json((tmp_path / "report.json.provenance.json").read_text(encoding="utf-8"))
    assert sidecar["config"]["command"] == "reproduce"
