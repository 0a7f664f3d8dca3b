"""Command-line contract: formats, determinism, config handling, exit codes."""

import contextlib
import io
import json
import logging
import math
import re
import tempfile
import time
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# 1e200 is finite, but |a0|^2 overflows
@pytest.mark.parametrize("a0", ["nan,0", "1e200,0"])
@pytest.mark.parametrize("command", ["born sweep", "limit compare"])
def test_born_sweep_rejects_non_finite_amplitude(tmp_path, capsys, command, a0):
    out = tmp_path / "x.csv"
    assert run(command.split() + ["--a0", a0, "--a1", "0,1", "--n", "5,7", "--out", str(out)]) == 2
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


def test_sidecar_provenance(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "sweep.csv"
    assert run(["born", "sweep", "--n", "5,7", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "sweep.csv.provenance.json").read_text(encoding="utf-8"))
    assert sidecar["config"] == {
        "command": "born sweep",
        "format_version": "1",
        "out": str(out),
        "params": {"a0": [1.0, 0.0], "a1": [0.0, 1.0], "epsilon": 0.0, "n": [5, 7]},
    }
    assert "wall_clock_utc" in sidecar and "version" in sidecar
    assert set(sidecar["libraries"]) == {"python", "numpy", "scipy"}
    assert sidecar["libraries"]["numpy"] == np.__version__
    assert sidecar["blas_thread_env"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
    # the one subcommand that draws random numbers records its seed as a parameter
    mc = tmp_path / "mc.csv"
    assert run(["fkm", "autocorr", "--n", "8", "--mode", "mc", "--samples", "100", "--seed", "99", "--out", str(mc)]) == 0
    config = json.loads((tmp_path / "mc.csv.provenance.json").read_text(encoding="utf-8"))["config"]
    assert "seed" not in config and config["params"]["seed"] == 99


def test_unknown_log_level_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MINGSIM_LOG_LEVEL", "bogus")
    assert run(["ming", "verify", "--n", "5", "--out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "MINGSIM_LOG_LEVEL" in captured.err and "'bogus'" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_debug_log_per_command(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="mingsim")
    assert run(["born", "sweep", "--n", "5,7", "--epsilon", "0.25", "--out", str(tmp_path / "sweep.csv")]) == 0
    records = [r for r in caplog.records if r.name == "mingsim"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    message = records[0].getMessage()
    assert message.startswith("born sweep: params ")
    assert "'n': [5, 7]" in message and "'epsilon': 0.25" in message
    assert re.search(r", elapsed \d+\.\d{3} s$", message)


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


DETERMINISTIC = (["ming", "verify"], ["observable", "fn"], ["born", "sweep"], ["limit", "compare"], ["fkm", "oufit"])


def _out_flag(argv, tmp_path):
    return ["--out", str(tmp_path / "x.csv")] if argv[0] in ("ming", "born", "limit") else []


def test_config_unknown_field_rejected(tmp_path, capsys):
    # only fkm autocorr has a seed, and a sidecar's command and format_version
    # are not parameters
    cfg = tmp_path / "run.json"
    for argv in DETERMINISTIC:
        for key in ("frobnicate", "seed", "command", "format_version"):
            cfg.write_text(json.dumps({key: 1}), encoding="utf-8")
            assert run(argv + ["--config", str(cfg)] + _out_flag(argv, tmp_path)) == 2
            assert f"config: unknown field {key!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv", DETERMINISTIC, ids=" ".join)
def test_seed_flag_only_on_fkm_autocorr(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--seed", "1"] + _out_flag(argv, tmp_path))
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_limit_compare_report(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps({"a0": [0.6, 0], "a1": [0, 0.8], "n": [5, 7, 11, 13, 101, 1009]}),
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


def test_autocorr_svg_numeric_attributes_parse(tmp_path):
    svg = tmp_path / "curve.svg"
    assert run(["fkm", "autocorr", "--n", "8", "--out", str(tmp_path / "curve.csv"), "--svg", str(svg)]) == 0
    numeric = {"x", "y", "x1", "y1", "x2", "y2", "width", "height", "stroke-width"}
    checked = 0
    for element in ElementTree.parse(svg).iter():
        for name, value in element.attrib.items():
            if name in ("points", "viewBox"):
                numbers = re.split("[ ,]", value)
            elif name in numeric:
                numbers = [value]
            else:
                continue
            for number in numbers:
                # float() forgives surrounding whitespace, so check it first
                assert number == number.strip() != "", (element.tag, name, value)
                float(number)
                checked += 1
    assert checked > 400  # each of the polyline's 200 points has two numbers


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


def test_reproduce_fault_subset(capsys, tmp_path, corrupted_generator_block):
    rpt = tmp_path / "report.json"
    code = run(["reproduce", "--only", "A2", "--out", str(rpt)])
    assert code == 3
    assert "A2  FAIL" in capsys.readouterr().out
    report = json.loads(rpt.read_text(encoding="utf-8"))
    assert report["passed"] is False
    assert report["results"][0]["passed"] is False


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


# ---------------------------------------------------------------------------
# the input contract: every invalid field exits 2, names the field, writes nothing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, config, field",
    [
        (["fkm", "autocorr", "--n", "8", "--omega0-sq", "nan"], None, "omega0_sq"),
        (["fkm", "autocorr", "--beta", "nan"], None, "beta"),
        (["fkm", "autocorr", "--mode", "mc", "--samples", "1"], None, "samples"),
        (["fkm", "autocorr"], {"n": "abc"}, "n"),
        (["fkm", "autocorr", "--tau-max", "nan"], None, "tau_max"),
        (["fkm", "autocorr", "--mode", "mc", "--n", "8"], {"samples": 1.5}, "samples"),
        (["ming", "verify", "--n", "5", "--h", "nan"], None, "h"),
        (["ming", "verify", "--n", "5", "--h", "inf"], None, "h"),
        (["limit", "compare", "--epsilon", "2"], None, "epsilon"),
        (["limit", "compare", "--tolerance", "nan"], None, "tolerance"),
        (["born", "sweep", "--n", ""], None, "n"),
        (["fkm", "autocorr", "--n", "8"], {"seed": "x"}, "seed"),
        (["born", "sweep"], {"epsilon": "x"}, "epsilon"),
    ],
)
def test_invalid_field_exits_2_naming_it(tmp_path, capsys, argv, config, field):
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(tmp_path / "run.json")]
    assert run(argv + ["--out", str(tmp_path / "artifact")]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == ([tmp_path / "run.json"] if config is not None else [])


@pytest.mark.parametrize(
    "argv",
    [
        # finite but extreme values that overflow inside the computation
        ["fkm", "autocorr", "--n", "8", "--beta", "5e-324"],
        ["fkm", "autocorr", "--n", "8", "--kappa0", "1e308"],
        ["fkm", "autocorr", "--n", "8", "--tau-max", "1e308"],
        ["ming", "verify", "--n", "5", "--h", "5e-324"],
        ["ming", "verify", "--n", "5", "--h", "1e308"],
        # a repeated size would make the limit fits rank-deficient
        ["limit", "compare", "--n", "5,5"],
        # limit compare rejects unnormalized amplitudes; born sweep rescales them
        ["limit", "compare", "--a0", "1,0", "--a1", "1,0"],
        # finite but too large to allocate (7 PiB, beyond the address space)
        ["fkm", "autocorr", "--n", "8", "--tau-steps", "1000000000000000"],
    ],
)
def test_unusable_result_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    svg = ["--svg", str(tmp_path / "chart.svg")] if argv[0] == "fkm" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + ["--out", str(tmp_path / "artifact")] + svg) == 2
    err = capsys.readouterr().err
    assert f"config error: {argv[0]} {argv[1]}:" in err
    # the overflow is reported as the subcommand's error, not as a numpy warning
    assert caught == [] and "Warning" not in err
    assert list(tmp_path.iterdir()) == []


def test_coupling_overflow_names_kappa0(tmp_path, capsys):
    assert run(["fkm", "autocorr", "--n", "8", "--kappa0", "1e308", "--out", str(tmp_path / "a.csv")]) == 2
    assert "kappa0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mc_overflow_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["fkm", "autocorr", "--mode", "mc", "--n", "8", "--beta", "5e-324", "--samples", "100", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.strip() == "config error: fkm autocorr: overflow encountered in multiply"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("factor", ["0", "nan"])
def test_oufit_rejects_bad_window_factor(tmp_path, capsys, factor):
    curve = tmp_path / "curve.csv"
    tau = np.linspace(0.0, 20.0, 200)
    curve.write_text("tau,value\n" + "".join(f"{t!r},{np.exp(-t)!r}\n" for t in tau), encoding="utf-8")
    assert run(["fkm", "oufit", "--in", str(curve), "--window-factor", factor]) == 2
    assert "window_factor:" in capsys.readouterr().err


@pytest.mark.parametrize("taus", ["0,1,0.5,2", "0,0,0"], ids=["misordered", "repeated"])
def test_oufit_rejects_tau_that_does_not_increase(tmp_path, capsys, taus):
    curve = tmp_path / "curve.csv"
    curve.write_text("tau,value\n" + "".join(f"{t},{math.exp(-float(t))!r}\n" for t in taus.split(",")), encoding="utf-8")
    assert run(["fkm", "oufit", "--in", str(curve)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "tau must increase strictly" in captured.err


def test_observable_fn_rejects_non_finite_state(tmp_path, capsys):
    state = tmp_path / "state.csv"
    for amplitude in ("nan", "1e200"):  # 1e200 is finite, but its |.|^2 overflows
        state.write_text(f"index,re,im\n3,{amplitude},0\n", encoding="utf-8")
        assert run(["observable", "fn", "--n", "5", "--epsilon", "0", "--state", str(state)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not finite" in captured.err


def test_sidecar_elapsed_covers_compute(tmp_path, monkeypatch):
    from mingsim import fkm

    original = fkm.phase_autocorrelation

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return original(*args, **kwargs)

    monkeypatch.setattr(fkm, "phase_autocorrelation", slow)
    out = tmp_path / "curve.csv"
    assert run(["fkm", "autocorr", "--n", "8", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "curve.csv.provenance.json").read_text(encoding="utf-8"))
    assert sidecar["elapsed_seconds"] >= 0.05


# ---------------------------------------------------------------------------
# fuzz over every subcommand's flags
# ---------------------------------------------------------------------------

BAD_TOKENS = ["nan", "inf", "-inf", "-1", "0", "", "abc", "1.5", "1,2"]


def _reals(lo, hi):
    return st.floats(lo, hi).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _names(*names):
    return st.sampled_from(names)


_PAIR = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(lambda p: f"{p[0]!r},{p[1]!r}")
_PAIR_BAD = ["0,0", "nan,0", "0,inf", "1e200,0", "1", "1,2,3"]
_PRIMES = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 101, 1009]), min_size=1, max_size=4).map(
    lambda ns: ",".join(map(str, ns))
)
_EPSILON = ("epsilon", _reals(0.0, 0.99), ["1", "1.0"])

ALWAYS_DRAWN = {  # flags whose default is large or missing
    ("reproduce", "only"), ("fkm autocorr", "n"), ("fkm autocorr", "samples"), ("fkm autocorr", "horizon-periods"),
    ("observable fn", "n"), ("observable fn", "state"), ("fkm oufit", "in"),
}
# flag -> (--config key or None, valid values, invalid edge values); sizes are
# bounded so that every valid draw runs in milliseconds
FUZZ_FLAGS = {
    "ming verify": {"n": ("n", _names("2", "3", "5", "7", "11", "13"), ["1", "4", "17", "1000000007"]),
                    "h": ("h", _reals(0.01, 100), [])},
    "observable fn": {"n": ("n", _ints(2, 64), ["1"]), "epsilon": _EPSILON,
                      "state": ("state", _names("state-ok"), ["state-nan", "state-wide", "state-header", "nope"])},
    "born sweep": {"a0": ("a0", _PAIR, _PAIR_BAD), "a1": ("a1", _PAIR, _PAIR_BAD), "epsilon": _EPSILON,
                   "n": ("n", _PRIMES, ["4,5", ","])},
    "limit compare": {"a0": ("a0", _names("0.6,0", "0,-0.6"), _PAIR_BAD), "a1": ("a1", _names("0,0.8", "0.8,0"), _PAIR_BAD),
                      "epsilon": _EPSILON,
                      "n": ("n", _PRIMES, ["9"]), "tolerance": ("tolerance", _reals(0.0, 1.0), [])},
    "fkm autocorr": {"n": ("n", _ints(1, 64), []), "beta": ("beta", _reals(0.1, 10), []),
                     "kappa0": ("kappa0", _reals(0, 10), ["-1"]), "omega0-sq": ("omega0_sq", _reals(0.1, 10), ["-1"]),
                     "tau-max": ("tau_max", _reals(0.5, 20), []), "tau-steps": ("tau_steps", _ints(2, 100), []),
                     "mode": ("mode", _names("analytic", "mc", "time"), ["bogus"]),
                     "samples": ("samples", _ints(2, 2000), []),
                     "horizon-periods": ("horizon_periods", _reals(0.01, 50), []),
                     "oversample": ("oversample", _ints(1, 4), []),
                     "seed": ("seed", _ints(0, 2**31), ["-5"]),
                     "svg": (None, _names("curve.svg"), [])},
    "fkm oufit": {"in": ("in_path", _names("curve-ok"), ["curve-nan", "curve-short", "curve-header", "curve-zero", "curve-misordered", "nope"]),
                  "window-factor": ("window_factor", _reals(0.01, 50), [])},
    "reproduce": {"only": (None, _names("A1", "a2", "A1,A2"), ["A9", "abc"])},
}
FILE_FLAGS = {"state", "in"}  # their drawn value names an input file


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz-inputs")
    tau = np.linspace(0.0, 20.0, 60)
    files = {
        "state-ok": "index,re,im\n3,0.6,0\n1,0,0.8\n",
        "state-nan": "index,re,im\n3,nan,0\n",
        "state-wide": "index,re,im\n99,1,0\n",
        "state-header": "index,re,im\n",
        "curve-ok": "tau,value\n" + "".join(f"{t!r},{math.exp(-0.5 * t)!r}\n" for t in tau.tolist()),
        "curve-nan": "tau,value\n0,1\n1,nan\n2,0.2\n",
        "curve-short": "tau,value\n0,1\n1\n2,0.2\n",
        "curve-header": "tau,value\n",
        "curve-zero": "tau,value\n" + "".join(f"{t!r},0.0\n" for t in tau.tolist()),
        "curve-misordered": "tau,value\n0,1\n1,0.4\n0.5,0.6\n2,0.1\n",
    }
    for name, body in files.items():
        (base / name).write_text(body, encoding="utf-8")
    return base


def _as_json(text):
    """A drawn flag string as the JSON value a config file would hold."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@st.composite
def fuzz_calls(draw):
    """(command, flags, --config fields, whether --out is given); each drawn
    value is invalid with probability 1/8."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags, config = {}, {}
    for flag, (key, valid, invalid) in FUZZ_FLAGS[command].items():
        if (command, flag) in ALWAYS_DRAWN or draw(st.booleans()):
            bad = draw(st.integers(0, 7)) == 0
            value = draw(st.sampled_from(invalid + BAD_TOKENS) if bad else valid)
            if key is not None and draw(st.integers(0, 3)) == 0:
                config[key] = _as_json(value)
            else:
                flags[flag] = value
    if command != "reproduce" and draw(st.integers(0, 9)) == 0:
        config[draw(st.sampled_from(["frobnicate", "out", "n"]))] = draw(st.sampled_from([None, True, [1, 2], {"x": 1}]))
    return command, flags, config, draw(st.integers(0, 9)) > 0


def _assert_finite_csv(text):
    for row in text.splitlines()[1:]:
        for cell in row.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), row


@given(fuzz_calls())
@settings(max_examples=150, deadline=None)
def test_fuzz_every_subcommand(fuzz_inputs, call):
    command, flags, config, with_out = call
    work = Path(tempfile.mkdtemp(dir=fuzz_inputs))
    argv = command.split()
    for flag, value in flags.items():
        if flag in FILE_FLAGS and value != "nope":
            value = str(fuzz_inputs / value)
        elif flag == "svg" and value:
            value = str(work / value)
        argv.append(f"--{flag}={value}")
    if config:
        for key in ("state", "in_path"):
            if isinstance(config.get(key), str) and config[key] != "nope":
                config[key] = str(fuzz_inputs / config[key])
        (fuzz_inputs / f"{work.name}.json").write_text(json.dumps(config), encoding="utf-8")
        argv.append(f"--config={fuzz_inputs / work.name}.json")
    if with_out and command not in ("observable fn", "fkm oufit"):
        argv.append(f"--out={work / 'artifact'}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    written = sorted(work.iterdir())
    if code == 2:
        assert written == [], argv
    for path in written:
        text = path.read_text(encoding="utf-8")
        if path.name.endswith(".json") or command in ("limit compare", "reproduce"):
            _strict_json(text)
        elif path.suffix == ".svg":
            assert not re.search(r"\b(nan|inf)\b", text), argv
        else:
            _assert_finite_csv(text)
    printed = stdout.getvalue()
    if code == 0 and command == "fkm oufit":
        _strict_json(printed)
    elif code == 0 and command == "observable fn":
        assert 0.0 <= float(printed) <= 1.0, argv
    elif code == 0 and command == "ming verify" and not with_out:
        _assert_finite_csv(printed)
