"""Command-line contract: formats, determinism, config handling, exit codes."""

import argparse
import contextlib
import csv
import errno
import io
import json
import logging
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import textwrap
import time
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mingsim import bitlattice, cli, dynamics, fkm, ming
from mingsim.bitlattice import SWEEP_MAX_SITES
from mingsim.errors import DenseBoundError


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


@pytest.mark.parametrize(
    "h, reason",
    [("5e-324", "is too small: 2 pi / h is not finite"), ("1e308", "is too large: the block entries overflow")],
)
def test_ming_verify_extreme_h_names_h(tmp_path, capsys, h, reason):
    assert run(["ming", "verify", "--n", "5", "--h", h, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: ming verify: h={float(h)!r} {reason}\n"
    assert list(tmp_path.iterdir()) == []


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
    assert "config error: observable fn: state: cannot read" in capsys.readouterr().err
    state.write_bytes(b"index,re,im\n3,\xff1,0\n")  # not UTF-8
    assert run(["observable", "fn", "--n", "5", "--epsilon", "0", "--state", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "state: cannot read" in captured.err and "can't decode byte 0xff" in captured.err


@pytest.mark.parametrize(
    ("argv", "field", "text"),
    [
        (["observable", "fn", "--n", "5", "--epsilon", "0", "--state"], "state", "index,re,im\n3,1,0\n4,{cell},0\n"),
        (["fkm", "oufit", "--in"], "in_path", "tau,value\n0,1\n{cell},0.5\n2,0.25\n"),
    ],
    ids=["state", "curve"],
)
def test_oversized_csv_cell_names_field_and_line(tmp_path, capsys, argv, field, text):
    # one cell past the csv module's 131 072-character field limit, on line 3
    path = tmp_path / "input.csv"
    path.write_text(text.format(cell="1" * 200_000), encoding="utf-8")
    assert run(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        f"config error: {' '.join(argv[:2])}: {field}: line 3: field larger than field limit (131072)"
    )


def test_bad_state_row_names_its_file_line(tmp_path, capsys):
    # the quoted cell spans lines 2 and 3, so the bad row is on line 4
    state = tmp_path / "state.csv"
    state.write_text('index,re,im\n0,"0.6\n",0\n1,0,x\n', encoding="utf-8", newline="")
    assert run(["observable", "fn", "--n", "5", "--state", str(state)]) == 2
    message = "state: line 4: bad amplitude: could not convert string to float: 'x'"
    assert capsys.readouterr() == ("", f"config error: observable fn: {message}\n")


# a first row whose index was not an int was skipped as a header: without a
# header, 1.0 was dropped and the unnormalized rest printed 0.64 with exit 0;
# a blank line made the real header the second row, refused as a bad index
@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("1.0,0.6,0\n3,0.6,0\n7,0.8,0\n", (2, "config error: observable fn: state: line 1: bad index '1.0'\n")),
        ("index,re,im\n1.0,0.6,0\n3,0.6,0\n7,0.8,0\n", (2, "config error: observable fn: state: line 2: bad index '1.0'\n")),
        ("\nindex,re,im\n3,0.6,0\n7,0.8,0\n", (0, "")),
    ],
    ids=["headerless-float-index", "float-index-after-header", "blank-line-before-header"],
)
def test_state_header_is_the_first_row_whose_index_is_not_a_number(tmp_path, capsys, text, expected):
    state = tmp_path / "state.csv"
    state.write_text(text, encoding="utf-8")
    code = run(["observable", "fn", "--n", "5", "--epsilon", "0", "--state", str(state)])
    captured = capsys.readouterr()
    assert (code, captured.err) == expected
    assert captured.out == ("" if code else "0.64\n")


def test_undecodable_curve_and_config_name_their_field(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"tau,value\n0,1\xff\n")
    assert run(["fkm", "oufit", "--in", str(binary)]) == 2
    assert f"config error: fkm oufit: in_path: cannot read {binary}: 'utf-8' codec" in capsys.readouterr().err
    assert run(["born", "sweep", "--config", str(binary), "--out", str(tmp_path / "x.csv")]) == 2
    assert f"config error: born sweep: config: cannot read {binary}: 'utf-8' codec" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [binary]


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


# limit compare needs |a0|^2 + |a1|^2 within 1e-9 of 1, and at 1e200 that
# sum overflows; born sweep rescales the same pair (see below)
@pytest.mark.parametrize(
    "command, a0", [("born sweep", "nan,0"), ("limit compare", "nan,0"), ("limit compare", "1e200,0")]
)
def test_born_sweep_rejects_non_finite_amplitude(tmp_path, capsys, command, a0):
    out = tmp_path / "x.csv"
    assert run(command.split() + ["--a0", a0, "--a1", "0,1", "--n", "5,7", "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


# |a|^2 underflows to 0 at 1e-170 and overflows at 1e155 and 1e200; the pair
# is rescaled by its largest part first, so the means are those of (1, 0)
# and (1, 0), or of (1, 0) and (0, 0)
@pytest.mark.parametrize(
    "a0, a1, reference",
    [("1e-170,0", "1e-170,0", ("1,0", "1,0")), ("1e155,0", "1e155,0", ("1,0", "1,0")), ("1e200,0", "0,1", ("1,0", "0,0"))],
    ids=["1e-170", "1e155", "1e200"],
)
def test_born_sweep_rescales_far_range_amplitudes(tmp_path, a0, a1, reference):
    def sweep(a0, a1, name):
        out = tmp_path / name
        assert run(["born", "sweep", "--a0", a0, "--a1", a1, "--n", "5,7,11", "--out", str(out)]) == 0
        return out.read_bytes()

    assert sweep(a0, a1, "far.csv") == sweep(*reference, "near.csv")


def test_born_sweep_rejects_zero_pair(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["born", "sweep", "--a0", "0,0", "--a1", "0,0", "--out", str(out)]) == 2
    assert "both zero" in capsys.readouterr().err
    assert not out.exists()


# 2**89 - 1 stalled in trial division, and 1000000007 (a sweep of 19 GB)
# was killed by the system; both exit 2 at once, as does the first prime
# over the bound
@pytest.mark.parametrize("command", ["born sweep", "limit compare"])
@pytest.mark.parametrize("n", [2**89 - 1, 1_000_000_007, SWEEP_MAX_SITES + 35])
def test_sweep_over_the_site_bound_exits_2_naming_n(tmp_path, capsys, command, n):
    start = time.perf_counter()
    assert run(command.split() + ["--n", f"5,{n}", "--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - start < 1.0
    bound = SWEEP_MAX_SITES
    assert capsys.readouterr().err == f"config error: {command}: n: n={n} exceeds the sweep bound of {bound} sites\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_at_the_site_bound_reaches_the_primality_check(tmp_path, capsys):
    assert run(["born", "sweep", "--n", str(SWEEP_MAX_SITES), "--out", str(tmp_path / "x")]) == 2
    assert "n must be prime" in capsys.readouterr().err


def test_no_trial_division_above_the_site_bound(tmp_path, capsys, monkeypatch):
    # every prime lattice size checks the bound before trial division, which
    # for 2**89 - 1 would not end; the spy fails any such call at once
    def spy(n):
        assert n <= SWEEP_MAX_SITES, f"trial division of n={n}"
        return is_prime(n)

    is_prime = bitlattice.is_prime
    monkeypatch.setattr(bitlattice, "is_prime", spy)
    monkeypatch.setattr(cli, "is_prime", spy)
    n = 2**89 - 1
    over_sweep = f"n={n} exceeds the sweep bound of {SWEEP_MAX_SITES} sites"
    over_dense = f"n={n} exceeds dense-mode bound of 13 sites"
    for command, message in [("born sweep", over_sweep), ("limit compare", over_sweep), ("ming verify", over_dense)]:
        assert run(command.split() + ["--n", str(n), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"config error: {command}: n: {message}\n"
    with pytest.raises(ValueError, match=f"^{over_sweep}$"):
        dynamics.born_limit_sweep((0.6, 0.8), [n])
    with pytest.raises(DenseBoundError, match=f"^{over_dense}$"):
        bitlattice.decompose_orbits(n)
    assert list(tmp_path.iterdir()) == []


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
    assert set(sidecar["libraries"]) == {"python", "numpy"}
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


def test_debug_log_per_command(tmp_path, caplog, monkeypatch):
    monkeypatch.setenv("MINGSIM_LOG_LEVEL", "DEBUG")
    assert run(["born", "sweep", "--n", "5,7", "--epsilon", "0.25", "--out", str(tmp_path / "sweep.csv")]) == 0
    records = [r for r in caplog.records if r.name == "mingsim"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    message = records[0].getMessage()
    assert message.startswith("born sweep: params ")
    assert "'n': [5, 7]" in message and "'epsilon': 0.25" in message
    assert re.search(r", elapsed \d+\.\d{3} s$", message)


def test_log_level_read_by_every_call(tmp_path, caplog, monkeypatch):
    # no caplog.set_level: MINGSIM_LOG_LEVEL alone sets the mingsim logger
    argv = ["ming", "verify", "--n", "5", "--out", str(tmp_path / "x.csv")]
    for level, records in (("WARNING", 0), ("DEBUG", 1), ("WARNING", 0), ("DEBUG", 1)):
        monkeypatch.setenv("MINGSIM_LOG_LEVEL", level)
        caplog.clear()
        assert run(argv) == 0
        logged = [r for r in caplog.records if r.name == "mingsim"]
        assert len(logged) == records, level
        assert all(r.levelno == logging.DEBUG and r.getMessage().startswith("ming verify: params ") for r in logged)


# ---------------------------------------------------------------------------
# the parser is built once per process
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_parser():
    """No cached parser before the test, and none built under its patches after."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    out = tmp_path / "x.csv"
    assert run(["ming", "verify", "--n", "5", "--out", str(out)]) == 0
    first = len(built)
    assert first > 1  # the top-level parser and one per group and subcommand
    assert run(["born", "sweep", "--n", "5", "--out", str(out)]) == 0
    assert run(["fkm", "autocorr", "--n", "4", "--tau-steps", "3", "--out", str(out)]) == 0
    with pytest.raises(SystemExit):
        run(["born", "sweep", "--bogus"])
    capsys.readouterr()
    assert len(built) == first


def test_cached_parser_keeps_no_values_between_calls(tmp_path, capsys, fresh_parser):
    def params(out):
        return json.loads(Path(f"{out}.provenance.json").read_text(encoding="utf-8"))["config"]["params"]

    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert run(["born", "sweep", "--epsilon", "0.2", "--n", "5,7", "--out", str(first)]) == 0
    assert run(["born", "sweep", "--out", str(second)]) == 0
    assert params(first)["epsilon"] == 0.2 and params(first)["n"] == [5, 7]
    assert params(second)["epsilon"] == 0.0 and params(second)["n"] == [5, 7, 11, 13]

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"a0": [0.6, 0], "a1": [0, 0.8], "n": [5], "epsilon": 0.3}), encoding="utf-8")
    assert run(["born", "sweep", "--config", str(cfg), "--out", str(first)]) == 0
    assert run(["born", "sweep", "--out", str(second)]) == 0
    assert params(first) == {"a0": [0.6, 0.0], "a1": [0.0, 0.8], "n": [5], "epsilon": 0.3}
    assert params(second) == {"a0": [1.0, 0.0], "a1": [0.0, 1.0], "n": [5, 7, 11, 13], "epsilon": 0.0}

    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("mingsim ")
    with pytest.raises(SystemExit) as exc:
        run(["born", "sweep", "--n"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    assert run(["born", "sweep", "--n", "4", "--out", str(second)]) == 2
    assert "n must be prime" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "a0, a1, message",
    [
        ("1e200,0", "0,1", "|a0|^2 + |a1|^2 = inf is not finite"),
        ("1,0", "1,0", "|a0|^2 + |a1|^2 = 2.0 deviates from 1 beyond 1e-9"),
        ("0,0", "0,0", "|a0|^2 + |a1|^2 = 0.0 deviates from 1 beyond 1e-9"),
    ],
)
def test_limit_compare_gates_amplitudes_before_the_sweep(tmp_path, capsys, monkeypatch, a0, a1, message):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the amplitude gate")

    monkeypatch.setattr(dynamics, "born_limit_sweep", sweep)
    assert run(["limit", "compare", f"--a0={a0}", f"--a1={a1}", "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"config error: limit compare: {message}\n"
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


def test_autocorr_time_mode_cost_is_independent_of_horizon(tmp_path, capsys):
    # 1e9 periods are 4.8e10 trajectory points at n = 8, summed in closed form
    out = tmp_path / "curve.csv"
    base = ["fkm", "autocorr", "--n", "8", "--mode", "time", "--out", str(out)]
    start = time.perf_counter()
    assert run(base + ["--horizon-periods", "1e9"]) == 0
    assert time.perf_counter() - start < 10.0
    values = [float(line.split(",")[1]) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(values) == 200 and all(math.isfinite(v) for v in values)
    out.unlink()
    capsys.readouterr()
    assert run(base + ["--horizon-periods", "1e307"]) == 2  # horizon / dt is not finite
    assert "horizon" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_oufit_at_extreme_scales(tmp_path, capsys, scale):
    # the fit overflowed in matmul (1e-300) and in square (1e300) before it
    # ran on the curve over a power of two
    out = tmp_path / "curve.csv"
    tau = np.linspace(0.0, 3.0, 31)
    out.write_text("tau,value\n" + "".join(f"{t!r},{scale * 10.0**-t!r}\n" for t in tau.tolist()), encoding="utf-8")
    assert run(["fkm", "oufit", "--in", str(out)]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["gamma"] == pytest.approx(math.log(10.0), rel=1e-12)
    assert fit["amplitude"] == pytest.approx(scale, rel=1e-12)
    assert 0.0 <= fit["residual"] < 1e-12


def test_oufit_degenerate_is_numeric_failure(tmp_path, capsys):
    out = tmp_path / "zero.csv"
    out.write_text("tau,value\n" + "\n".join(f"{t / 10},0.0" for t in range(40)) + "\n", encoding="utf-8")
    assert run(["fkm", "oufit", "--in", str(out)]) == 3
    capsys.readouterr()


def test_oufit_amplitude_past_float_range_exits_3(tmp_path, capsys):
    # the fitted amplitude is about 2.17 * 2^1023; math.ldexp raised a bare
    # OverflowError here, and the command exited 2 without naming it
    values = 1.7e308 * np.exp(-np.linspace(0.0, 3.0, 31))
    values[1:4] = 1.79e308
    out = tmp_path / "curve.csv"
    out.write_text("tau,value\n" + "".join(f"{t / 10!r},{v!r}\n" for t, v in enumerate(values.tolist())), encoding="utf-8")
    assert run(["fkm", "oufit", "--in", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"numeric failure: fitted amplitude [0-9.e+]+ \* 2\*\*1023 is beyond the float range\n", captured.err)


# ---------------------------------------------------------------------------
# tables: render_csv and read_curve_csv against csv's row-at-a-time path
# ---------------------------------------------------------------------------


def _csv_writer_table(columns):
    """The table as csv.writer writes it a row at a time, a float through
    repr, with the first non-finite float cell in row order a ValueError."""
    header = list(columns)
    rows = len(next(cells for cells in columns.values() if isinstance(cells, list)))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in range(rows):
        row = [cells[r] if isinstance(cells, list) else cells for cells in columns.values()]
        for name, x in zip(header, row):
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{name} {x!r} is not finite")
        writer.writerow([x if isinstance(x, str) else repr(x) if isinstance(x, float) else str(x) for x in row])
    return buf.getvalue()


def _same_table_or_error(columns):
    try:
        expected = _csv_writer_table(columns)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            cli.render_csv(columns)
        assert str(got.value) == str(exc)
        return str(exc)
    assert cli.render_csv(columns) == expected
    return expected


@pytest.mark.parametrize(
    "columns, expected",
    [
        pytest.param(
            {"x": [5e-324, -0.0, 1e16, 1e-05, 0.1 + 0.2, 1.7976931348623157e308, -1.7976931348623157e308], "k": list(range(7))},
            None, id="floats",
        ),
        pytest.param({"i": [-1, -(10**30), 10**400, 2**63, 0]}, None, id="ints"),
        pytest.param({"tau": [0.0, 0.5, 1.0], "kind": "phase-mc", "n": -8, "beta": 0.1 + 0.2, "seed": 10**20}, None, id="constant"),
        pytest.param({"tau": [], "kind": "phase-mc", "beta": math.nan}, "tau,kind,beta\n", id="zero-rows"),
        pytest.param({"a": [0.0, 1.0, math.nan], "b": [0.0, math.inf, 2.0]}, "b inf is not finite", id="nan-then-inf"),
        pytest.param({"a": [0.0, math.nan], "b": [-math.inf, 1.0]}, "b -inf is not finite", id="inf-in-a-later-column"),
        pytest.param({"tau": [0.0, 1.0], "beta": math.inf}, "beta inf is not finite", id="constant-inf"),
    ],
)
def test_render_csv_matches_csv_writer(columns, expected):
    got = _same_table_or_error(columns)
    assert expected is None or got == expected


def test_render_csv_refuses_what_csv_writer_would_quote():
    # every string render_csv accepts is written as csv.writer writes it,
    # and every string csv.writer quotes is refused
    for text in ["", *(f"a{chr(c)}b" for c in range(0x250)), "two words", " lead", "trail "]:
        quoted = _csv_writer_table({"s": [text], "t": [1]}) != f"s,t\n{text},1\n"
        for columns in ({"s": [text], "t": [1]}, {"s": text, "t": [1]}, {text: [1]}):
            try:
                got = cli.render_csv(columns)
            except ValueError as exc:
                assert str(exc).endswith(f"{text!r} would need CSV quoting")
                assert text == "" or set(text) & set(',"\r\n'), text
            else:
                assert not quoted and got == _csv_writer_table(columns), text
        assert not quoted or text == "" or set(text) & set(',"\r\n'), text


@pytest.mark.parametrize(
    "argv, columns",
    [
        (["ming", "verify", "--n", "7"], lambda: {
            "orbit_id": [-1, *range(18)], "dimension": [2] + [7] * 18,
            "residual": [0.0] + [ming.verify_exponential(ming.build_block(7, 1.0))] * 18,
        }),
        (["born", "sweep", "--n", "5,7", "--epsilon", "0.25"], lambda: {
            name: [getattr(row, name) for row in dynamics.born_limit_sweep((1 + 0j, 1j), [5, 7], epsilon_schedule=0.25)]
            for name in ("n", "mean", "born_weight", "abs_error")
        }),
        (["fkm", "autocorr", "--n", "16", "--tau-steps", "50"], lambda: {
            "tau": np.linspace(0.0, 20.0, 50).tolist(),
            "value": fkm.phase_autocorrelation(fkm.scaled_ring(16, 1.0), np.linspace(0.0, 20.0, 50)).values.tolist(),
            "kind": "phase-analytic", "n": 16, "beta": 1.0, "seed": 42,
        }),
    ],
    ids=["ming-verify", "born-sweep", "fkm-autocorr"],
)
def test_cli_tables_match_csv_writer(tmp_path, argv, columns):
    out = tmp_path / "table.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == _csv_writer_table(columns())


def _dict_reader_curve(path):
    """(tau, values) of a curve CSV as csv.DictReader reads it a row at a
    time, or the ConfigInvalidError message."""
    reader = csv.DictReader(io.StringIO(Path(path).read_text(encoding="utf-8")))
    if reader.fieldnames is None or "tau" not in reader.fieldnames or "value" not in reader.fieldnames:
        return "in_path: curve CSV needs tau and value columns"
    taus, vals = [], []
    for row in reader:
        try:
            taus.append(cli.finite(row["tau"]))
            vals.append(cli.finite(row["value"]))
        except (TypeError, ValueError) as exc:
            return f"in_path: line {reader.line_num}: bad curve row: {exc}"
    return taus, vals


@pytest.mark.parametrize(
    "text",
    [
        "tau,value\n\n0,1\n\n1,0.5\n2,0.25\n\n",
        "tau,value\n0,1\n1\n2,0.3\n",
        "tau,value\n0,1\n\n1,0.5\n2,zz\n3,0.1\n",
        "tau,value\n0,1\n1,-inf\nnan,0.5\n",
        "tau,value,kind\n0,1,phase-mc\n1,0.5,\n2,0.25,phase-mc\n3,0.1,phase-mc\n",
        "kind,tau,value\nphase-time,0,1\nzz,1,0.4\n,2,0.2\n",
        "kind,tau,value\nphase-time,0,1\nzz,1,0.4\n3\n",
        "tau,value,tau\n5,1,0\n6,0.5,1\n7,0.25,2\n",
        "tau,value,tau\n5,1,0\n6,0.5\n",
        "tau,value\n0,1,extra,x\n1,0.4\n",
        'tau,value\n"0",1\n"1\n",0.4\n2,0.2\n',
        'tau,value\n"1\n",0.4\n2,x\n',
        "tau,value\n 0 ,1\n1, 0.4\n2,2_0\n",
        "tau,value\r\n0,1\r\n1,0.4\r\n",
        "tau,value\n",
        "",
        "\ntau,value\n0,1\n",
        "tau,val\n0,1\n",
    ],
    ids=[
        "blank-lines", "short-row", "bad-value-at-line-5", "inf-then-nan", "kind", "kind-first", "kind-short-row",
        "repeated-name", "repeated-name-short-row", "long-row", "quoted", "quoted-then-bad-at-line-4", "spaces", "crlf",
        "header-only", "empty", "blank-first-line", "no-value-column",
    ],
)
def test_read_curve_csv_matches_dict_reader(tmp_path, text):
    path = tmp_path / "curve.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _dict_reader_curve(path)
    if isinstance(expected, str):
        with pytest.raises(cli.ConfigInvalidError) as exc:
            cli.read_curve_csv(str(path))
        assert str(exc.value) == expected
    else:
        curve = cli.read_curve_csv(str(path))
        assert (curve.tau.tolist(), curve.values.tolist()) == expected
        assert curve.tau.dtype == curve.values.dtype == np.float64


def test_svg_points_match_numpy_scalar_formatting():
    curve = fkm.phase_autocorrelation(fkm.scaled_ring(8, 1.0), np.linspace(0.0, 20.0, 200))
    t, v = curve.tau, curve.values
    xs = 45 + (t - t.min()) / (t.max() - t.min()) * 550
    ys = 315 - (v - v.min()) / (v.max() - v.min()) * 270
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))  # numpy scalars, one at a time
    assert f'points="{points}"' in cli.render_svg(curve)


# ---------------------------------------------------------------------------
# exit codes and plumbing
# ---------------------------------------------------------------------------


def test_io_error_exit_code(capsys):
    assert run(["born", "sweep", "--n", "5", "--out", "/nonexistent-dir/x.csv"]) == 4
    err = capsys.readouterr().err
    assert "'/nonexistent-dir/x.csv'" in err and ".tmp" not in err  # the user's path, not the temp file


def test_failed_out_write_leaves_no_svg(tmp_path, capsys):
    svg = tmp_path / "ok.svg"
    assert run(["fkm", "autocorr", "--n", "8", "--out", "/nonexistent-dir/x.csv", "--svg", str(svg)]) == 4
    assert "io error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_svg_write_leaves_no_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["fkm", "autocorr", "--n", "8", "--out", "x.csv", "--svg", "/nonexistent-dir/x.svg"]) == 4
    assert "'/nonexistent-dir/x.svg'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # a directory in the chart's place fails before any rename, too
    (tmp_path / "d").mkdir()
    assert run(["fkm", "autocorr", "--n", "8", "--out", "x.csv", "--svg", "d"]) == 4
    assert "Is a directory: 'd'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "d"] and list((tmp_path / "d").iterdir()) == []


# pathlib dropped the last part of "newdir/" and "newdir/.", so each was
# written as the file newdir, with exit 0; open() refuses "newdir/" too
@pytest.mark.parametrize("path", ["newdir/", "newdir/."])
def test_out_path_naming_a_directory_exits_4_and_writes_nothing(tmp_path, monkeypatch, capsys, path):
    monkeypatch.chdir(tmp_path)
    assert run(["born", "sweep", "--n", "5", "--out", path]) == 4
    assert capsys.readouterr().err == f"io error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {path!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_svg_path_ending_in_a_separator_exits_4_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["fkm", "autocorr", "--n", "8", "--out", "a.csv", "--svg", "chart/"]) == 4
    assert capsys.readouterr().err == f"io error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'chart/'\n"
    assert list(tmp_path.iterdir()) == []


# --svg on the CSV, on the same path spelt another way, or on the sidecar
# overwrote that file with the chart and exited 0
@pytest.mark.parametrize("out, svg", [("x.csv", "x.csv"), ("x.csv", "./x.csv"), ("y.csv", "y.csv.provenance.json")])
def test_outputs_sharing_a_path_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys, out, svg):
    monkeypatch.chdir(tmp_path)
    assert run(["fkm", "autocorr", "--n", "8", "--out", out, "--svg", svg]) == 2
    assert capsys.readouterr().err == f"config error: fkm autocorr: two output files share the path {os.path.abspath(svg)!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_write_after_its_temp_file_exists_leaves_nothing(tmp_path, monkeypatch, capsys):
    # the sidecar's temp file exists when its write runs out of space
    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    opened = []
    real_fdopen = os.fdopen

    def fdopen(fd, *args, **kwargs):
        opened.append(real_fdopen(fd, *args, **kwargs))
        return FullDisk(opened[-1]) if len(opened) == 2 else opened[-1]  # the second is the sidecar's

    monkeypatch.setattr(os, "fdopen", fdopen)
    out = tmp_path / "x.csv"
    assert run(["fkm", "autocorr", "--n", "8", "--out", str(out), "--svg", str(tmp_path / "x.svg")]) == 4
    assert capsys.readouterr().err == f"io error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out}.provenance.json'\n"
    assert len(opened) == 2 and list(tmp_path.iterdir()) == []


# a temp file made private (as mkstemp makes it 0600) would keep that mode through the rename
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_files_take_the_mode_open_gives_under_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        assert run(["fkm", "autocorr", "--n", "8", "--out", str(tmp_path / "x.csv"), "--svg", str(tmp_path / "x.svg")]) == 0
    finally:
        os.umask(previous)
    assert [stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()] == [mode] * 3


def test_writes_neither_read_nor_set_the_umask(tmp_path, monkeypatch):
    # setting the umask, even to read it, changes it for every thread of the process
    previous = os.umask(0o022)
    try:
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        assert run(["fkm", "autocorr", "--n", "8", "--out", str(tmp_path / "x.csv"), "--svg", str(tmp_path / "x.svg")]) == 0
    finally:
        monkeypatch.undo()
        os.umask(previous)
    assert [stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()] == [0o644] * 3


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
        # a repeated id ran that criterion twice and counted it twice
        (["reproduce", "--only", "A2,a2"], None, "only"),
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


def test_tiny_beta_names_beta(tmp_path, capsys):
    # 1 / beta overflows, and the message names beta
    assert run(["fkm", "autocorr", "--n", "8", "--beta", "5e-324", "--out", str(tmp_path / "a.csv")]) == 2
    assert "beta=5e-324 is too small" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    for mode in ("analytic", "time"):  # 1e-300 is still usable there
        assert run(["fkm", "autocorr", "--n", "8", "--beta", "1e-300", "--mode", mode, "--out", str(tmp_path / f"{mode}.csv")]) == 0


def test_mc_overflow_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    # 1 / beta is finite, but the Monte-Carlo's squared products overflow,
    # here in the Gram form's z^T z; the message names the products and
    # beta, then gives numpy's text
    argv = ["fkm", "autocorr", "--mode", "mc", "--n", "8", "--beta", "1e-200", "--samples", "100", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.strip() == (
        "config error: fkm autocorr: Monte-Carlo products p0(0) p0(tau) at beta=1e-200: overflow encountered in matmul"
    )
    assert list(tmp_path.iterdir()) == []


def test_mc_sum_overflow_names_the_sum(tmp_path, capsys):
    out = tmp_path / "x.csv"
    # no squared product overflows here, but the sum of the tau = 0 squares
    # does: the Gram form's C = sum_s z_s z_s^T is finite, and the sum that
    # closes its quadratic form at tau = 0 overflows, so the error is the
    # sum's, as for one sum over the products
    argv = ["fkm", "autocorr", "--mode", "mc", "--n", "8", "--beta", "4.686e-153", "--samples", "2000", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.strip() == (
        "config error: fkm autocorr: Monte-Carlo products p0(0) p0(tau) at beta=4.686e-153: overflow encountered in reduce"
    )
    assert list(tmp_path.iterdir()) == []


def test_mc_sum_overflow_names_the_sum_on_the_product_form(tmp_path, capsys):
    out = tmp_path / "x.csv"
    # n = 1024 keeps the product form: its blocks start every 256 rows, and
    # at this beta the running sum of the tau = 0 squares overflows at row
    # 256, the first row of the second block, where no square does;
    # the running sum is carried in that sum, so the error is the sum's
    argv = ["fkm", "autocorr", "--mode", "mc", "--n", "1024", "--beta", "2.077e-153", "--samples", "2000", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.strip() == (
        "config error: fkm autocorr: Monte-Carlo products p0(0) p0(tau) at beta=2.077e-153: overflow encountered in reduce"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["analytic", "mc"])
def test_overflowing_tau_max_names_tau(tmp_path, capsys, mode):
    # finite, but omega_max * tau_max overflows (omega_max is about 5.2 at n = 8)
    argv = ["fkm", "autocorr", "--mode", mode, "--n", "8", "--tau-max", "1e308", "--out", str(tmp_path / "x.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: fkm autocorr: tau up to 1e+308 is too large"), err
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


@pytest.mark.parametrize("taus", ["-2,-1,0", "-3,-2,-1"])
def test_oufit_rejects_negative_tau(tmp_path, capsys, taus):
    # the first exited 2 with numpy's bare divide-by-zero message, the second 0
    curve = tmp_path / "curve.csv"
    curve.write_text("tau,value\n" + "".join(f"{t},{v}\n" for t, v in zip(taus.split(","), (1, 0.5, 0.2))), encoding="utf-8")
    assert run(["fkm", "oufit", "--in", str(curve)]) == 2
    start = float(taus.split(",")[0])
    assert capsys.readouterr() == ("", f"config error: fkm oufit: tau must be >= 0, got tau[0] = {start!r}\n")


def test_observable_fn_rejects_non_finite_state(tmp_path, capsys):
    state = tmp_path / "state.csv"
    for amplitude in ("nan", "1e200"):  # 1e200 is finite, but its |.|^2 overflows
        state.write_text(f"index,re,im\n3,{amplitude},0\n", encoding="utf-8")
        assert run(["observable", "fn", "--n", "5", "--epsilon", "0", "--state", str(state)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not finite" in captured.err


def _without_seconds(text):
    """reproduce's table with each criterion's runtime column dropped."""
    return re.sub(r"(PASS|FAIL) +[0-9.]+s ", r"\1 ", text)


def test_cold_start_loads_no_scipy_module(tmp_path, capsys):
    # A fresh interpreter whose imports of scipy and scipy.* are refused runs
    # `ming verify`, `fkm oufit` and `reproduce --only A7` with warnings as
    # errors, gives this process's bytes, and ends with no scipy module
    # loaded.  In-process tests cannot see this, because tests/test_ming.py
    # imports scipy.linalg when it is collected.
    curve = tmp_path / "curve.csv"
    tau = np.linspace(0.0, 20.0, 200)
    curve.write_text("tau,value\n" + "".join(f"{float(t)!r},{math.exp(-0.4 * t)!r}\n" for t in tau), encoding="utf-8")
    verify = ["ming", "verify", "--n", "7", "--h", "0.7", "--out"]
    commands = [verify + [str(tmp_path / "cold" / "v.csv")], ["fkm", "oufit", "--in", str(curve)], ["reproduce", "--only", "A7"]]
    (tmp_path / "cold").mkdir()
    (tmp_path / "warm").mkdir()
    script = textwrap.dedent(f"""
        import importlib.abc, sys

        class RefuseScipy(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "scipy":
                    raise ImportError(f"{{name}} is refused")

        sys.meta_path.insert(0, RefuseScipy())
        import mingsim, mingsim.acceptance, mingsim.cli
        for argv in {commands!r}:
            if mingsim.cli.main(argv):
                sys.exit(f"{{argv}} failed")
        loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
        sys.exit(f"loaded: {{loaded}}" if loaded else 0)
    """)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    argv = [sys.executable, "-W", "error", "-c", script]
    cold = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert (cold.returncode, cold.stderr) == (0, "")
    commands[0] = verify + [str(tmp_path / "warm" / "v.csv")]
    assert [run(argv) for argv in commands] == [0, 0, 0]
    assert _without_seconds(cold.stdout) == _without_seconds(capsys.readouterr().out)
    assert (tmp_path / "cold" / "v.csv").read_bytes() == (tmp_path / "warm" / "v.csv").read_bytes()


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
                      "state": ("state", _names("state-ok"), ["state-nan", "state-wide", "state-header", "state-binary", "nope"])},
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
    "fkm oufit": {"in": ("in_path", _names("curve-ok"), ["curve-nan", "curve-short", "curve-header", "curve-zero", "curve-misordered", "curve-binary", "nope"]),
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
    for name, body in {"state-binary": b"index,re,im\n3,\xff1,0\n", "curve-binary": b"tau,value\n0,1\xff\n"}.items():
        (base / name).write_bytes(body)  # not UTF-8
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
