"""Reproducible command-line front door.

Every run is described by a RunConfig (command id, parameters, seed,
output path, format version) that serializes to canonical JSON.  A
subcommand may load one from --config and override single fields with
flags.  Artifacts are written atomically (temp file + rename), values are
formatted through repr so identical configs give byte-identical files,
and anything environment-dependent (wall clock, library version) lives
only in the sidecar provenance JSON next to each artifact.

Exit codes: 0 success, 2 invalid config or flags, 3 numeric acceptance
failure (failed reproduce criterion, degenerate fit), 4 I/O failure.
The only environment input is MINGSIM_LOG_LEVEL for the log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import json
import logging
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, acceptance, dynamics, fkm, observable, thermolimit
from .bitlattice import is_prime, require_dense
from .errors import ConfigInvalidError, DegenerateFitError, MingsimError
from .ming import build_block, verify_exponential

log = logging.getLogger("mingsim")

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    seed: int = 0
    out: str | None = None
    format_version: str = FORMAT_VERSION

    def to_json(self) -> str:
        return canonical_json(dataclasses.asdict(self))


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace jitter, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write(path: Path, data: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_sidecar(path: Path, config: RunConfig, elapsed: float) -> None:
    sidecar = {
        "config": dataclasses.asdict(config),
        "version": __version__,
        "wall_clock_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": elapsed,
    }
    atomic_write(Path(str(path) + ".provenance.json"), canonical_json(sidecar))


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([x if isinstance(x, str) else repr(x) if isinstance(x, float) else str(x) for x in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# config merging
# ---------------------------------------------------------------------------


def merge_params(args, defaults: dict) -> dict:
    """Start from defaults, overlay --config file values, overlay given flags."""
    params = dict(defaults)
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigInvalidError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalidError(f"config: {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigInvalidError("config: top level must be a JSON object")
        for key, value in loaded.items():
            if key in ("command", "format_version"):
                continue
            if key not in params:
                raise ConfigInvalidError(f"config: unknown field {key!r}")
            params[key] = value
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            params[key] = flag
    return params


def parse_complex_pair(text, field: str) -> complex:
    if isinstance(text, (list, tuple)) and len(text) == 2:
        return complex(float(text[0]), float(text[1]))
    try:
        re_part, im_part = str(text).split(",")
        return complex(float(re_part), float(im_part))
    except ValueError as exc:
        raise ConfigInvalidError(f"{field}: expected re,im got {text!r}") from exc


def parse_int_list(text, field: str) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(x) for x in text]
    try:
        return [int(x) for x in str(text).split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigInvalidError(f"{field}: expected comma-separated integers, got {text!r}") from exc


def require_prime_ns(ns, field: str):
    for n in ns:
        if not is_prime(n):
            raise ConfigInvalidError(f"{field}: n must be prime, got {n}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_ming_verify(args) -> int:
    params = merge_params(args, {"n": 5, "h": 1.0, "seed": 0})
    n = int(params["n"])
    h = float(params["h"])
    if not is_prime(n):
        raise ConfigInvalidError(f"n: n must be prime, got {n}")
    if h <= 0:
        raise ConfigInvalidError(f"h: must be positive, got {h}")
    require_dense(n)  # the table lists every orbit, (2**n - 2) / n rows
    residual = verify_exponential(build_block(n, h))
    rows = [(-1, 2, 0.0)]  # the two shift-fixed lines; identity is exact there
    rows += [(k, n, residual) for k in range(((1 << n) - 2) // n)]  # q orbits, n prime
    text = render_csv(("orbit_id", "dimension", "residual"), rows)
    config = RunConfig("ming verify", {"n": n, "h": h}, seed=int(params["seed"]), out=args.out)
    return emit(text, args.out, config)


def read_state_csv(path: str) -> dict[int, complex]:
    state: dict[int, complex] = {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalidError(f"state: cannot read {path}: {exc}") from exc
    for lineno, row in enumerate(csv.reader(io.StringIO(raw)), start=1):
        if not row or not row[0].strip():
            continue
        try:
            index = int(row[0])
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise ConfigInvalidError(f"state: line {lineno}: bad index {row[0]!r}")
        if len(row) < 3:
            raise ConfigInvalidError(f"state: line {lineno}: need index,re,im")
        if index in state:
            raise ConfigInvalidError(f"state: line {lineno}: duplicate index {index}")
        try:
            state[index] = complex(float(row[1]), float(row[2]))
        except ValueError as exc:
            raise ConfigInvalidError(f"state: line {lineno}: bad amplitude: {exc}") from exc
    if not state:
        raise ConfigInvalidError(f"state: {path} holds no amplitude rows")
    return state


def cmd_observable_fn(args) -> int:
    params = merge_params(args, {"n": None, "epsilon": 0.0, "state": None, "seed": 0})
    if params["n"] is None:
        raise ConfigInvalidError("n: required")
    if params["state"] is None:
        raise ConfigInvalidError("state: required")
    n = int(params["n"])
    try:
        cocked = observable.CockedSet(n, float(params["epsilon"]))
    except ValueError as exc:
        raise ConfigInvalidError(f"epsilon: {exc}") from exc
    state = read_state_csv(str(params["state"]))
    for index in state:
        if not 0 <= index < 2**n:
            raise ConfigInvalidError(f"state: index {index} out of range for n={n}")
    value = observable.pointer_value(state, cocked)
    print(repr(value))
    return EXIT_OK


def cmd_born_sweep(args) -> int:
    params = merge_params(args, {"a0": "1,0", "a1": "0,1", "n": "5,7,11,13", "epsilon": 0.0, "seed": 0})
    a0 = parse_complex_pair(params["a0"], "a0")
    a1 = parse_complex_pair(params["a1"], "a1")
    ns = parse_int_list(params["n"], "n")
    require_prime_ns(ns, "n")
    epsilon = float(params["epsilon"])
    if not 0.0 <= epsilon < 1.0:
        raise ConfigInvalidError(f"epsilon: must lie in [0, 1), got {epsilon}")
    if abs(a0) ** 2 + abs(a1) ** 2 <= 0:
        raise ConfigInvalidError("a0: amplitudes must not both vanish")
    if args.out is None:
        raise ConfigInvalidError("out: required")
    rows = [
        (row.n, row.mean, row.born_weight, row.abs_error)
        for row in dynamics.born_limit_sweep((a0, a1), ns, epsilon_schedule=epsilon)
    ]
    text = render_csv(("n", "mean", "born_weight", "abs_error"), rows)
    config = RunConfig(
        "born sweep",
        {"a0": [a0.real, a0.imag], "a1": [a1.real, a1.imag], "n": ns, "epsilon": epsilon},
        seed=int(params["seed"]),
        out=args.out,
    )
    return emit(text, args.out, config)


def cmd_limit_compare(args) -> int:
    params = merge_params(
        args,
        {"a0": "0.6,0", "a1": "0,0.8", "n": "5,7,11,13,101,1009", "epsilon": 0.0, "tolerance": 1e-3, "seed": 0},
    )
    a0 = parse_complex_pair(params["a0"], "a0")
    a1 = parse_complex_pair(params["a1"], "a1")
    ns = parse_int_list(params["n"], "n")
    require_prime_ns(ns, "n")
    if args.out is None:
        raise ConfigInvalidError("out: required")
    sweep = dynamics.born_limit_sweep((a0, a1), ns, epsilon_schedule=float(params["epsilon"]))
    report = thermolimit.compare_limit((a0, a1), sweep, tolerance=float(params["tolerance"]))
    payload = {
        "ns": list(report.ns),
        "errors": list(report.errors),
        "limit_value": report.limit_value,
        "fitted_exponent": report.fitted_exponent,
        "fitted_intercept": report.fitted_intercept,
        "final_error": report.final_error,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }
    config = RunConfig(
        "limit compare",
        {
            "a0": [a0.real, a0.imag],
            "a1": [a1.real, a1.imag],
            "n": ns,
            "epsilon": float(params["epsilon"]),
            "tolerance": float(params["tolerance"]),
        },
        seed=int(params["seed"]),
        out=args.out,
    )
    return emit(canonical_json(payload), args.out, config)


CURVE_MODES = ("analytic", "mc", "time")
_KIND_BY_MODE = {"analytic": "phase-analytic", "mc": "phase-monte-carlo", "time": "time-trajectory"}


def cmd_fkm_autocorr(args) -> int:
    params = merge_params(
        args,
        {
            "n": 256,
            "beta": 1.0,
            "kappa0": 1.0,
            "omega0_sq": 1.0,
            "tau_max": 20.0,
            "tau_steps": 200,
            "mode": "analytic",
            "seed": 42,
            "samples": 100_000,
            "horizon_periods": 1e4,
            "oversample": 4,
        },
    )
    mode = str(params["mode"])
    if mode not in CURVE_MODES:
        raise ConfigInvalidError(f"mode: must be one of {CURVE_MODES}, got {mode!r}")
    n = int(params["n"])
    beta = float(params["beta"])
    steps = int(params["tau_steps"])
    if n < 1:
        raise ConfigInvalidError(f"n: must be positive, got {n}")
    if beta <= 0:
        raise ConfigInvalidError(f"beta: must be positive, got {beta}")
    if steps < 2:
        raise ConfigInvalidError(f"tau_steps: need at least 2, got {steps}")
    if float(params["tau_max"]) <= 0:
        raise ConfigInvalidError(f"tau_max: must be positive, got {params['tau_max']}")
    if args.out is None:
        raise ConfigInvalidError("out: required")
    seed = int(params["seed"])
    chain = fkm.scaled_ring(n, beta, kappa0=float(params["kappa0"]), omega0_sq=float(params["omega0_sq"]))
    tau = np.linspace(0.0, float(params["tau_max"]), steps)
    if mode == "analytic":
        curve = fkm.phase_autocorrelation(chain, tau)
    elif mode == "mc":
        curve = fkm.mc_phase_autocorrelation(chain, tau, samples=int(params["samples"]), seed=seed)
    else:
        oversample = int(params["oversample"])
        if oversample < 1:
            raise ConfigInvalidError(f"oversample: must be at least 1, got {oversample}")
        horizon = float(params["horizon_periods"]) * 2 * np.pi / fkm.dft_frequencies(chain).max()
        if not (np.isfinite(horizon) and horizon > tau[-1]):
            raise ConfigInvalidError(
                f"horizon_periods: horizon {horizon:.6g} must be finite and exceed tau_max {tau[-1]:.6g}"
            )
        x0 = fkm.sample_gibbs(chain, seed)
        curve = fkm.time_autocorrelation(chain, x0, horizon, tau, oversample=oversample).curve
    rows = [
        (float(t), float(v), curve.kind, n, beta, seed)
        for t, v in zip(curve.tau, curve.values)
    ]
    text = render_csv(("tau", "value", "kind", "n", "beta", "seed"), rows)
    config = RunConfig(
        "fkm autocorr",
        {
            "n": n,
            "beta": beta,
            "kappa0": float(params["kappa0"]),
            "omega0_sq": float(params["omega0_sq"]),
            "tau_max": float(params["tau_max"]),
            "tau_steps": steps,
            "mode": mode,
            "samples": int(params["samples"]),
            "horizon_periods": float(params["horizon_periods"]),
            "oversample": int(params["oversample"]),
        },
        seed=seed,
        out=args.out,
    )
    status = emit(text, args.out, config)
    if status == EXIT_OK and args.svg:
        atomic_write(Path(args.svg), render_svg(curve))
    return status


def render_svg(curve) -> str:
    """Self-contained line chart of one autocorrelation curve."""
    width, height, pad = 640, 360, 45
    t = np.asarray(curve.tau)
    v = np.asarray(curve.values)
    t_span = t.max() - t.min() or 1.0
    v_lo, v_hi = float(v.min()), float(v.max())
    v_span = (v_hi - v_lo) or 1.0
    xs = pad + (t - t.min()) / t_span * (width - 2 * pad)
    ys = height - pad - (v - v_lo) / v_span * (height - 2 * pad)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>\n'
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-family="monospace">{curve.kind}</text>\n'
        f'<text x="{width - pad}" y="{height - pad + 30}" text-anchor="end" font-family="monospace">'
        f"tau {t.min():g}..{t.max():g}</text>\n"
        f'<text x="{pad}" y="{pad - 10} " font-family="monospace">{v_lo:.3g}..{v_hi:.3g}</text>\n'
        f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{points}"/>\n'
        "</svg>\n"
    )


def cmd_fkm_oufit(args) -> int:
    params = merge_params(args, {"in_path": None, "window_factor": 5.0, "seed": 0})
    if params["in_path"] is None:
        raise ConfigInvalidError("in: required")
    try:
        raw = Path(str(params["in_path"])).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalidError(f"in: cannot read {params['in_path']}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(raw))
    taus, vals, kinds = [], [], set()
    if reader.fieldnames is None or "tau" not in reader.fieldnames or "value" not in reader.fieldnames:
        raise ConfigInvalidError("in: curve CSV needs tau and value columns")
    for lineno, row in enumerate(reader, start=2):
        try:
            taus.append(float(row["tau"]))
            vals.append(float(row["value"]))
        except (TypeError, ValueError) as exc:
            raise ConfigInvalidError(f"in: line {lineno}: bad curve row: {exc}") from exc
        kinds.add(row.get("kind") or "phase-analytic")
    curve = fkm.AutocorrCurve(tau=np.array(taus), values=np.array(vals), kind=sorted(kinds)[0])
    fit = fkm.ou_fit(curve, window_factor=float(params["window_factor"]))
    print(
        canonical_json(
            {"gamma": fit.gamma, "residual": fit.residual, "amplitude": fit.amplitude, "window": fit.window}
        ),
        end="",
    )
    return EXIT_OK


def cmd_reproduce(args) -> int:
    only = None
    if args.only:
        only = [c.strip().upper() for c in args.only.split(",") if c.strip()]
        unknown = [c for c in only if c not in acceptance.CRITERION_IDS]
        if unknown:
            raise ConfigInvalidError(f"only: unknown criteria {unknown}")
    faults = frozenset([args.inject_fault]) if args.inject_fault else frozenset()
    results = acceptance.run_all(faults=faults, only=only)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.criterion}  {status}  {res.seconds:6.1f}s  {res.detail}")
    failed = [r.criterion for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed" + (f"; failed: {', '.join(failed)}" if failed else ""))
    if args.out:
        payload = {
            "results": [dataclasses.asdict(r) for r in results],
            "passed": not failed,
            "faults": sorted(faults),
        }
        config = RunConfig("reproduce", {"only": only or list(acceptance.CRITERION_IDS), "faults": sorted(faults)}, out=args.out)
        emit(canonical_json(payload), args.out, config)
    return EXIT_OK if not failed else EXIT_NUMERIC


def emit(text: str, out: str | None, config: RunConfig) -> int:
    start = time.perf_counter()
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    atomic_write(Path(out), text)
    write_sidecar(Path(out), config, elapsed=time.perf_counter() - start)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mingsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"mingsim {__version__}")
    sub = parser.add_subparsers(dest="group", required=True)

    def add_common(p, out=True):
        p.add_argument("--config", help="JSON file with parameter fields; flags override")
        p.add_argument("--seed", type=int, default=None)
        if out:
            p.add_argument("--out", default=None, help="output file (default: stdout where supported)")

    g_ming = sub.add_parser("ming", help="generator checks").add_subparsers(dest="cmd", required=True)
    p = g_ming.add_parser("verify", help="per-orbit exponential residuals as CSV")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--h", type=float, default=None)
    add_common(p)
    p.set_defaults(handler=cmd_ming_verify)

    g_obs = sub.add_parser("observable", help="pointer variable").add_subparsers(dest="cmd", required=True)
    p = g_obs.add_parser("fn", help="evaluate f_n on a state CSV (index,re,im)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--state", default=None)
    add_common(p, out=False)
    p.set_defaults(handler=cmd_observable_fn)

    g_born = sub.add_parser("born", help="time-average sweeps").add_subparsers(dest="cmd", required=True)
    p = g_born.add_parser("sweep", help="per-n one-period means vs Born weight")
    p.add_argument("--a0", default=None, help="re,im")
    p.add_argument("--a1", default=None, help="re,im")
    p.add_argument("--n", default=None, help="comma-separated primes")
    p.add_argument("--epsilon", type=float, default=None)
    add_common(p)
    p.set_defaults(handler=cmd_born_sweep)

    g_limit = sub.add_parser("limit", help="two-point limit comparison").add_subparsers(dest="cmd", required=True)
    p = g_limit.add_parser("compare", help="sweep vs limit system, JSON report")
    p.add_argument("--a0", default=None)
    p.add_argument("--a1", default=None)
    p.add_argument("--n", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    add_common(p)
    p.set_defaults(handler=cmd_limit_compare)

    g_fkm = sub.add_parser("fkm", help="harmonic ring autocorrelation").add_subparsers(dest="cmd", required=True)
    p = g_fkm.add_parser("autocorr", help="autocorrelation curve as CSV")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--kappa0", type=float, default=None)
    p.add_argument("--omega0-sq", dest="omega0_sq", type=float, default=None)
    p.add_argument("--tau-max", dest="tau_max", type=float, default=None)
    p.add_argument("--tau-steps", dest="tau_steps", type=int, default=None)
    p.add_argument("--mode", choices=CURVE_MODES, default=None)
    p.add_argument("--samples", type=int, default=None, help="Monte-Carlo sample count")
    p.add_argument("--horizon-periods", dest="horizon_periods", type=float, default=None)
    p.add_argument("--oversample", type=int, default=None)
    p.add_argument("--svg", default=None, help="also write a self-contained SVG chart")
    add_common(p)
    p.set_defaults(handler=cmd_fkm_autocorr)
    p = g_fkm.add_parser("oufit", help="exponential-decay fit of a curve CSV")
    p.add_argument("--in", dest="in_path", default=None)
    p.add_argument("--window-factor", dest="window_factor", type=float, default=None)
    add_common(p, out=False)
    p.set_defaults(handler=cmd_fkm_oufit)

    p = sub.add_parser("reproduce", help="run the acceptance criteria and print a pass/fail table")
    p.add_argument("--only", default=None, help="comma-separated criterion ids, e.g. A1,A5")
    p.add_argument("--inject-fault", dest="inject_fault", choices=sorted(acceptance.KNOWN_FAULTS), default=None)
    p.add_argument("--out", default=None, help="also write the table as a JSON report")
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MINGSIM_LOG_LEVEL", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigInvalidError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateFitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MingsimError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
