"""Reproducible command-line front door.

Every subcommand is one entry of the parameter table COMMANDS: a handler
and its fields, each field declared once as (name, parser, default, check,
help).  The table drives the front end.  build_parser makes one flag per
field.  The dispatcher merges a --config JSON object over the defaults and
explicit flags over that, parses every given value and runs its check.
A value that fails to parse or check is a ConfigInvalidError naming the
field.  The resolved fields are recorded in the sidecar's config object
(command, format version, output path and parameters), in canonical JSON.
Handlers only compute and return the artifact text.

Artifacts are written atomically (temp file + rename), values are
formatted through repr so identical configs give byte-identical files,
and anything environment-dependent (wall clock, library versions, BLAS
thread settings, compute time) lives only in the sidecar provenance JSON
next to each artifact.
All JSON is strict: a non-finite value raises instead of reaching disk.

Exit codes: 0 success, 2 invalid config or flags (including an input too
large to allocate), 3 numeric acceptance failure (failed reproduce
criterion, degenerate fit), 4 I/O failure.
The only environment input is MINGSIM_LOG_LEVEL for the log verbosity,
one of logging's level names (an unknown name exits 2);
the BLAS thread variables are only recorded, because threaded BLAS may
move the last digit of a Monte-Carlo or trajectory value.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import json
import logging
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

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

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def canonical_json(obj) -> str:
    """Stable strict serialization: sorted keys, no whitespace jitter, one
    newline; NaN and Infinity raise ValueError instead of being written."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


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


def write_sidecar(out: str, command: str, params: dict, elapsed: float) -> None:
    path = Path(out)
    sidecar = {
        "config": {"command": command, "format_version": FORMAT_VERSION, "out": out, "params": params},
        "version": __version__,
        "libraries": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "wall_clock_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": elapsed,
    }
    atomic_write(path.with_name(path.name + ".provenance.json"), canonical_json(sidecar))


def render_csv(header, rows) -> str:
    """CSV text, floats written through repr; like canonical_json, a NaN or
    infinity raises ValueError instead of being written."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        for name, x in zip(header, row):
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{name} {x!r} is not finite")
        writer.writerow([x if isinstance(x, str) else repr(x) if isinstance(x, float) else str(x) for x in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# the parameter table
# ---------------------------------------------------------------------------

REQUIRED = object()  # default of a field that has to be given


@dataclass(frozen=True)
class Field:
    """One parameter of one subcommand; its flag, --config key, parsing,
    range check and provenance entry all come from this declaration.

    parse turns a flag string or a --config JSON value into the field's
    type; check is a predicate on the parsed value, and help states the
    range it enforces.  A parse that raises ValueError or TypeError, or a
    check that is false or raises, is a ConfigInvalidError naming the field.
    """

    name: str
    parse: Callable
    default: object  # used as it stands, never parsed
    check: Callable | None = None
    help: str | None = None
    flag: str | None = None  # default: --name with dashes
    flag_only: bool = False  # neither read from --config nor recorded in the sidecar's params


@dataclass(frozen=True)
class Command:
    name: str  # "group cmd", or one word for a top-level command
    help: str
    handler: Callable  # resolved fields -> artifact text, or (text or None, exit code)
    fields: tuple[Field, ...]
    config: bool = True  # accepts --config


def finite(value) -> float:
    """A number or numeric text; nan and +-inf are rejected."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{x!r} is not finite")
    return x


def integer(value) -> int:
    """An integer, integer text or an integral float; 1.5 and booleans are rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def complex_pair(value) -> complex:
    """re,im as text or as a two-element JSON list."""
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or len(parts) != 2:
        raise ValueError(f"expected re,im, got {value!r}")
    return complex(finite(parts[0]), finite(parts[1]))


def _items(value) -> list:
    """Comma-separated text, a JSON list or a single value, as a list."""
    if isinstance(value, str):
        return [x.strip() for x in value.split(",") if x.strip()]
    return list(value) if isinstance(value, list) else [value]


def prime_list(value) -> list[int]:
    """One or more primes."""
    ns = [integer(x) for x in _items(value)]
    if not ns:
        raise ValueError("expected at least one prime")
    for n in ns:
        if not is_prime(n):
            raise ValueError(f"n must be prime, got {n}")
    return ns


def _dense_prime(n: int) -> bool:
    require_dense(n)  # first: trial division is slow for huge n
    return is_prime(n)


def _positive(x) -> bool:
    return x > 0


OUT = Field("out", str, None, bool, "output file (default: stdout)", flag_only=True)
OUT_REQUIRED = dataclasses.replace(OUT, default=REQUIRED, help="output file")
EPSILON = Field("epsilon", finite, 0.0, lambda e: 0.0 <= e < 1.0, "deviation budget as a fraction of n, in [0, 1)")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_ming_verify(p) -> str:
    n = p["n"]
    residual = verify_exponential(build_block(n, p["h"]))
    rows = [(-1, 2, 0.0)]  # the two shift-fixed lines; identity is exact there
    rows += [(k, n, residual) for k in range(((1 << n) - 2) // n)]  # q orbits, n prime
    return render_csv(("orbit_id", "dimension", "residual"), rows)


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


def cmd_observable_fn(p) -> str:
    cocked = observable.CockedSet(p["n"], p["epsilon"])
    return repr(observable.pointer_value(read_state_csv(p["state"]), cocked)) + "\n"


def cmd_born_sweep(p) -> str:
    rows = [
        (row.n, row.mean, row.born_weight, row.abs_error)
        for row in dynamics.born_limit_sweep((p["a0"], p["a1"]), p["n"], epsilon_schedule=p["epsilon"])
    ]
    return render_csv(("n", "mean", "born_weight", "abs_error"), rows)


def cmd_limit_compare(p) -> str:
    a = (p["a0"], p["a1"])
    sweep = dynamics.born_limit_sweep(a, p["n"], epsilon_schedule=p["epsilon"])
    report = thermolimit.compare_limit(a, sweep, tolerance=p["tolerance"])
    return canonical_json(dataclasses.asdict(report))


def cmd_fkm_autocorr(p) -> str:
    n, beta, seed = p["n"], p["beta"], p["seed"]
    chain = fkm.scaled_ring(n, beta, kappa0=p["kappa0"], omega0_sq=p["omega0_sq"])
    tau = np.linspace(0.0, p["tau_max"], p["tau_steps"])
    if p["mode"] == "analytic":
        curve = fkm.phase_autocorrelation(chain, tau)
    elif p["mode"] == "mc":
        curve = fkm.mc_phase_autocorrelation(chain, tau, samples=p["samples"], seed=seed)
    else:
        x0 = fkm.sample_gibbs(chain, seed)
        horizon = p["horizon_periods"] * 2 * np.pi / fkm.dft_frequencies(chain).max()
        curve = fkm.time_autocorrelation(chain, x0, horizon, tau, oversample=p["oversample"])
    rows = [(float(t), float(v), curve.kind, n, beta, seed) for t, v in zip(curve.tau, curve.values)]
    text = render_csv(("tau", "value", "kind", "n", "beta", "seed"), rows)  # first: it rejects non-finite values
    if p["svg"] is not None:
        atomic_write(Path(p["svg"]), render_svg(curve))
    return text


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
        f'<text x="{pad}" y="{pad - 10}" font-family="monospace">{v_lo:.3g}..{v_hi:.3g}</text>\n'
        f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{points}"/>\n'
        "</svg>\n"
    )


def read_curve_csv(path: str) -> fkm.AutocorrCurve:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalidError(f"in_path: cannot read {path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(raw))
    if reader.fieldnames is None or "tau" not in reader.fieldnames or "value" not in reader.fieldnames:
        raise ConfigInvalidError("in_path: curve CSV needs tau and value columns")
    taus, vals, kinds = [], [], set()
    for lineno, row in enumerate(reader, start=2):
        try:
            taus.append(finite(row["tau"]))
            vals.append(finite(row["value"]))
        except (TypeError, ValueError) as exc:
            raise ConfigInvalidError(f"in_path: line {lineno}: bad curve row: {exc}") from exc
        kinds.add(row.get("kind") or "phase-analytic")
    return fkm.AutocorrCurve(tau=np.array(taus), values=np.array(vals), kind=min(kinds, default="phase-analytic"))


def cmd_fkm_oufit(p) -> str:
    fit = fkm.ou_fit(read_curve_csv(p["in_path"]), window_factor=p["window_factor"])
    return canonical_json(dataclasses.asdict(fit))


def cmd_reproduce(p):
    results = acceptance.run_all(only=p["only"])
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.criterion}  {status}  {res.seconds:6.1f}s  {res.detail}")
    failed = [r.criterion for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed" + (f"; failed: {', '.join(failed)}" if failed else ""))
    report = {"results": [dataclasses.asdict(r) for r in results], "passed": not failed}
    return (canonical_json(report) if p["out"] else None), (EXIT_NUMERIC if failed else EXIT_OK)


COMMANDS = (
    Command("ming verify", "per-orbit exponential residuals as CSV", cmd_ming_verify, (
        Field("n", integer, 5, _dense_prime, "prime register size, at most 13"),
        Field("h", finite, 1.0, _positive, "generator scale, > 0"),
        OUT,
    )),
    Command("observable fn", "evaluate f_n on a state CSV (index,re,im)", cmd_observable_fn, (
        Field("n", integer, REQUIRED, lambda n: n >= 2, "register size, >= 2"),
        EPSILON,
        Field("state", str, REQUIRED, bool, "CSV of index,re,im rows"),
    )),
    Command("born sweep", "per-n one-period means vs Born weight", cmd_born_sweep, (
        Field("a0", complex_pair, 1 + 0j, help="re,im"),
        Field("a1", complex_pair, 1j, help="re,im"),
        Field("n", prime_list, (5, 7, 11, 13), help="comma-separated primes"),
        EPSILON, OUT_REQUIRED,
    )),
    Command("limit compare", "sweep vs limit system, JSON report", cmd_limit_compare, (
        Field("a0", complex_pair, 0.6 + 0j, help="re,im"),
        Field("a1", complex_pair, 0.8j, help="re,im"),
        Field("n", prime_list, (5, 7, 11, 13, 101, 1009), help="comma-separated primes"),
        EPSILON,
        Field("tolerance", finite, 1e-3, lambda t: t >= 0, "largest final error that passes, >= 0"),
        OUT_REQUIRED,
    )),
    Command("fkm autocorr", "autocorrelation curve as CSV", cmd_fkm_autocorr, (
        Field("n", integer, 256, _positive, "ring size, >= 1"),
        Field("beta", finite, 1.0, _positive, "inverse temperature, > 0"),
        Field("kappa0", finite, 1.0, help="coupling scale, kappa = kappa0 n^2 / pi^2"),
        Field("omega0_sq", finite, 1.0, help="on-site stiffness"),
        Field("tau_max", finite, 20.0, _positive, "largest lag, > 0"),
        Field("tau_steps", integer, 200, lambda k: k >= 2, "lag grid points, >= 2"),
        Field("mode", str, "analytic", lambda m: m in ("analytic", "mc", "time"), "analytic | mc | time"),
        Field("samples", integer, 100_000, lambda k: k >= 2, "Monte-Carlo sample count, >= 2"),
        Field("horizon_periods", finite, 1e4, _positive, "trajectory length in periods of the fastest mode, > 0"),
        Field("oversample", integer, 4, _positive, "trajectory points per lag step, >= 1"),
        Field("seed", integer, 42, lambda s: s >= 0, "random seed of --mode mc and time, >= 0"),
        OUT_REQUIRED,
        Field("svg", str, None, bool, "also write a self-contained SVG chart", flag_only=True),
    )),
    Command("fkm oufit", "exponential-decay fit of a curve CSV", cmd_fkm_oufit, (
        Field("in_path", str, REQUIRED, bool, "curve CSV with tau and value columns", flag="--in"),
        Field("window_factor", finite, 5.0, _positive, "fit window in decay times, > 0"),
    )),
    Command("reproduce", "run the acceptance criteria and print a pass/fail table", cmd_reproduce, (
        Field("only", lambda v: [c.upper() for c in _items(v)], acceptance.CRITERION_IDS,
              lambda ids: ids and set(ids) <= set(acceptance.CRITERION_IDS), "comma-separated criterion ids, e.g. A1,A5"),
        dataclasses.replace(OUT, help="also write the table as a JSON report"),
    ), config=False),
)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def resolve(command: Command, args) -> dict:
    """Field values: defaults, then --config fields, then explicit flags.

    Each given value is parsed and checked; a default is used as it stands.
    """
    given = {}
    if getattr(args, "config", None) is not None:
        try:
            given = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigInvalidError(f"config: cannot read {args.config}: {exc}") from exc
        except ValueError as exc:
            raise ConfigInvalidError(f"config: {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigInvalidError("config: top level must be a JSON object")
        for key in given.keys() - {f.name for f in command.fields if not f.flag_only}:
            raise ConfigInvalidError(f"config: unknown field {key!r}")
    given.update((f.name, getattr(args, f.name)) for f in command.fields if getattr(args, f.name) is not None)
    params = {}
    for f in command.fields:
        if f.name not in given:
            if f.default is REQUIRED:
                raise ConfigInvalidError(f"{f.name}: required")
            params[f.name] = f.default
            continue
        try:
            value = params[f.name] = f.parse(given[f.name])
            if f.check is not None and not f.check(value):
                raise ValueError(f"{value!r} is out of range ({f.help})")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigInvalidError(f"{f.name}: {exc}") from exc
    return params


def run(command: Command, args) -> int:
    """Resolve the fields, run the handler and emit its artifact; the
    sidecar's elapsed time covers the compute and the write."""
    p = resolve(command, args)
    recorded = {f.name: p[f.name] for f in command.fields if not f.flag_only}
    params = {key: [v.real, v.imag] if isinstance(v, complex) else v for key, v in recorded.items()}
    start = time.perf_counter()
    result = command.handler(p)
    text, status = result if isinstance(result, tuple) else (result, EXIT_OK)
    if text is not None:
        emit(text, p.get("out"), command.name, params, start)
    log.debug("%s: params %s, elapsed %.3f s", command.name, p, time.perf_counter() - start)
    return status


def emit(text: str, out: str | None, command: str, params: dict, start: float) -> None:
    """Write text to out with a sidecar (elapsed from start), or to stdout."""
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write(Path(out), text)
        write_sidecar(out, command, params, elapsed=time.perf_counter() - start)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mingsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"mingsim {__version__}")
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for command in COMMANDS:
        group, _, leaf = command.name.partition(" ")
        if not leaf:
            p = sub.add_parser(group, help=command.help)
        else:
            if group not in groups:
                helps = "; ".join(c.help for c in COMMANDS if c.name.startswith(group + " "))
                groups[group] = sub.add_parser(group, help=helps).add_subparsers(dest="cmd", required=True)
            p = groups[group].add_parser(leaf, help=command.help)
        for f in command.fields:
            p.add_argument(f.flag or "--" + f.name.replace("_", "-"), dest=f.name, default=None, help=f.help)
        if command.config:
            p.add_argument("--config", help="JSON file with parameter fields; flags override")
        p.set_defaults(command=command)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MINGSIM_LOG_LEVEL", "WARNING")
    if not isinstance(logging.getLevelName(level), int):  # not one of logging's level names
        print(f"config error: MINGSIM_LOG_LEVEL: unknown level {level!r}", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level)
    args = build_parser().parse_args(argv)
    try:
        # an overflowing input raises here instead of warning on stderr
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return run(args.command, args)
    except DegenerateFitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # rejected input, ConfigInvalidError naming the field; MemoryError is an
    # input whose arrays cannot be allocated
    except (MingsimError, ValueError, OverflowError, FloatingPointError, MemoryError) as exc:
        print(f"config error: {args.command.name}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
