"""The benchmark's four workloads: inputs, one timed pass, and its checks.

Every workload drives mingsim only through public functions, looked up as
module attributes (``fkm.normal_modes(...)``) so the tracer's wrappers see
the calls.  ``setup`` makes all inputs from the workload seed; ``run_pass``
runs one pass and returns what the program produced plus ``steps``, the
timing of each step (a public call or a group of them) by
``hostspeed.timed``; ``check`` turns a pass's result into outcomes, one per
check (one per invocation for cli-artifacts), outside the timed region;
``properties`` records the input properties and side outputs that later
claims cite.  ``step_invocations`` says whether each step is a user-facing
invocation (a CLI call) or the whole pass is one.

Why these four (each stresses a different layer):

* reproduce: the release gate users run; ~90% fkm.time_autocorrelation
  (criterion A6) and ~10% Monte-Carlo (A5).
* ring-scale: the O(n^2) mode matrix and the Monte-Carlo mat-muls at
  n = 256, 1024, 4096; the trajectory kernel is bypassed.
* amplifier-scale: pure-Python orbit arithmetic at n up to 100003, which is
  ~0% of every other workload.
* cli-artifacts: CLI calls of 2-15 ms where argument handling, writes and
  sidecars are most of the work; cli is <1% elsewhere.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hostspeed import timed
from mingsim import acceptance, bitlattice, cli, dynamics, fkm, ming, observable, thermolimit


@dataclass(frozen=True)
class Outcome:
    """One check.  ``operation`` marks a check that a call ended as documented
    (exit code, no escaped exception): its failure counts as a failed
    operation.  Any other failure is a wrong result and makes the run
    incorrect."""

    name: str
    ok: bool
    operation: bool = False


def _strict_json(text: str):
    """json.loads that rejects the non-standard NaN / Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _is_strict_json(text: str | bytes) -> bool:
    try:
        _strict_json(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError:
        return False
    return True


def _amplitudes(rng) -> tuple[complex, complex]:
    """Normalized (a0, a1) with |a1|^2 in [0.04, 0.93] and random phases."""
    theta = rng.uniform(0.2, 1.3)
    p0, p1 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return complex(math.cos(theta) * np.exp(1j * p0)), complex(math.sin(theta) * np.exp(1j * p1))


def _cocked_mean(w1: float, n: int, epsilon: float) -> float:
    """One-period mean of f_n from the strict cocked start, derived independently.

    The moving branch's n//2 ones rotate by t sites per step; both halves of
    the register then deviate by min(t, n - t) digits, so the pattern is
    cocked for the 2b + 1 steps with min(t, n - t) <= b, b = floor(eps n).
    The frozen branch stays cocked throughout.
    """
    b = math.floor(epsilon * n + 1e-12)
    return w1 * (1.0 - (2 * b + 1) / n)


def invoke(argv) -> tuple[int | None, str | None, str]:
    """One in-process CLI call: (exit code, escaped exception, stdout).

    SystemExit carries the exit code a shell would see.  Any other
    exception is a traceback (exit 1 from a shell); it is reported, not raised.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # counted as a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
    return code, error, stdout.getvalue()


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


class Reproduce:
    name = "reproduce"
    step_invocations = False

    def setup(self, seed: int, workdir: Path):
        # the criteria run at their own pinned seeds; the workload seed is
        # recorded but does not reach them
        return {"out": workdir / "reproduce.json"}

    def run_pass(self, inputs):
        out = inputs["out"]
        sidecar = Path(str(out) + ".provenance.json")
        for path in (out, sidecar):
            path.unlink(missing_ok=True)
        steps = {}
        code, error, stdout = timed(steps, "reproduce", invoke, ["reproduce", "--out", str(out)])
        return {
            "code": code,
            "error": error,
            "steps": steps,
            "stdout": stdout,
            "report": out.read_text(encoding="utf-8") if out.exists() else None,
            "sidecar": sidecar.read_text(encoding="utf-8") if sidecar.exists() else None,
        }

    @staticmethod
    def table(stdout: str) -> dict[str, list[str]]:
        """Criterion id -> [status, seconds, detail] from the printed table."""
        rows = {}
        for line in stdout.splitlines():
            parts = line.split(maxsplit=3)
            if len(parts) >= 3 and parts[0] in acceptance.CRITERION_IDS:
                rows[parts[0]] = parts[1:]
        return rows

    def check(self, inputs, result) -> list[Outcome]:
        ids = acceptance.CRITERION_IDS
        outcomes = [Outcome("reproduce --out exits 0", result["error"] is None and result["code"] == 0, operation=True)]
        table = self.table(result["stdout"])
        outcomes += [Outcome(f"{cid} PASS", table.get(cid, [None])[0] == "PASS") for cid in ids]
        summary = f"{len(ids)}/{len(ids)} criteria passed"
        outcomes.append(Outcome("table reports all criteria passed", summary in result["stdout"]))
        if result["report"] is not None:  # a missing report is the failed operation above
            try:
                report = _strict_json(result["report"])
                ok = sorted(r["criterion"] for r in report["results"] if r["passed"] is True) == sorted(ids)
            except (ValueError, KeyError, TypeError):
                ok = False
            outcomes.append(Outcome("report is strict JSON with every criterion passed", ok))
        if result["sidecar"] is not None:
            outcomes.append(Outcome("sidecar is strict JSON", _is_strict_json(result["sidecar"])))
        return outcomes

    def properties(self, inputs, result) -> dict:
        return {"criteria": {cid: " ".join(row) for cid, row in self.table(result["stdout"]).items()},
                "error": result["error"]}


# ---------------------------------------------------------------------------
# ring-scale
# ---------------------------------------------------------------------------

RING_NS = (256, 1024, 4096)
RING_SAMPLES = 20_000
RING_BETA = 1.0


class RingScale:
    name = "ring-scale"
    step_invocations = False

    def setup(self, seed: int, workdir: Path):
        return {
            "chains": [fkm.scaled_ring(n, beta=RING_BETA) for n in RING_NS],
            "tau": np.linspace(0.0, 20.0, 200),  # the A5 grid
            "seeds": [[seed, n] for n in RING_NS],
        }

    def run_pass(self, inputs):
        steps, rows, tau = {}, [], inputs["tau"]
        for chain, mc_seed in zip(inputs["chains"], inputs["seeds"]):
            n = chain.n
            modes = timed(steps, f"normal_modes n={n}", fkm.normal_modes, chain)
            curve = timed(steps, f"phase_autocorrelation n={n}", fkm.phase_autocorrelation, chain, tau)
            fit = timed(steps, f"ou_fit n={n}", fkm.ou_fit, curve)
            mc = timed(steps, f"mc_phase_autocorrelation n={n}", fkm.mc_phase_autocorrelation,
                        chain, tau, samples=RING_SAMPLES, seed=mc_seed)
            # keep O(n) views only: the n x n mode matrix must not outlive the pass
            rows.append({
                "n": chain.n,
                "site_weights": modes.vectors[0, :].copy(),
                "frequencies": modes.frequencies,
                "analytic": curve.values,
                "mc": mc.values,
                "stderr": mc.stderr,
                "ou_residual": fit.residual,
            })
        return {"steps": steps, "rows": rows}

    def check(self, inputs, result) -> list[Outcome]:
        outcomes = []
        for row in result["rows"]:
            n = row["n"]
            z = np.abs(row["mc"] - row["analytic"]) / row["stderr"]
            outcomes.append(Outcome(f"n={n} g(0) == 1/beta", row["analytic"][0] == 1.0 / RING_BETA))
            outcomes.append(Outcome(f"n={n} >=95% of tau within 3 stderr", float(np.mean(z <= 3.0)) >= 0.95))
            outcomes.append(Outcome(f"n={n} max z < 5", bool(np.all(z < 5.0))))
            outcomes.append(Outcome(f"n={n} OU residual finite", math.isfinite(row["ou_residual"])))
        return outcomes

    def properties(self, inputs, result) -> dict:
        out = {}
        for row in result["rows"]:
            n = row["n"]
            z = np.abs(row["mc"] - row["analytic"]) / row["stderr"]
            out[str(n)] = {
                "zero_site_weight_share": float(np.mean(row["site_weights"] == 0.0)),
                "distinct_frequency_share": len(np.unique(row["frequencies"])) / n,
                "ou_residual": row["ou_residual"],
                "max_z": float(z.max()),
                "share_within_3_stderr": float(np.mean(z <= 3.0)),
            }
        return out


# ---------------------------------------------------------------------------
# amplifier-scale
# ---------------------------------------------------------------------------

SWEEP_PRIMES = (1009, 4099, 10007, 30011, 50021, 100003)
EPSILONS = (0.0, 0.2)
DENSE_NS = (5, 7, 11, 13)
BLOCK_NS = (101, 401)
PREFIX_SITES, PREFIX_HORIZON, PREFIX_PAIRS = 6, 12, 4


def _qubit(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _product(factors) -> np.ndarray:
    state = np.ones(1, dtype=complex)
    for f in factors:
        state = np.kron(f, state)  # site k on bit k
    return state


class AmplifierScale:
    name = "amplifier-scale"
    step_invocations = False

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        a0, a1 = _amplitudes(rng)
        prefixes = []
        for k in range(PREFIX_PAIRS):
            base = [_qubit(rng) for _ in range(PREFIX_SITES)]
            partner = list(base)
            partner[k % PREFIX_SITES] = _qubit(rng)
            prefixes.append((_product(base), _product(partner)))
        return {
            "a": (a0, a1),
            "w1": abs(a1) ** 2 / (abs(a0) ** 2 + abs(a1) ** 2),
            "t_frac": float(rng.uniform(0.1, 0.9)),  # non-integer evolution time
            "h": float(rng.uniform(0.5, 2.0)),
            "prefixes": prefixes,
        }

    def run_pass(self, inputs):
        steps = {}
        sweeps, exponent, limit_value = {}, None, None
        for eps in EPSILONS:
            # one sweep call per prime, so each size is its own step
            rows = [row for n in SWEEP_PRIMES for row in timed(
                steps, f"born_limit_sweep eps={eps} n={n}", dynamics.born_limit_sweep,
                inputs["a"], [n], epsilon_schedule=eps, path="compressed")]
            report = timed(steps, f"compare_limit eps={eps}", thermolimit.compare_limit, inputs["a"], rows)
            sweeps[eps] = [(r.n, r.mean) for r in rows]
            if eps == 0.0:
                exponent, limit_value = report.fitted_exponent, report.limit_value
        dense = timed(steps, "dense averages", self._dense_averages, inputs["a"])
        evolved = timed(steps, "non-integer evolution", self._evolution, inputs["a"], inputs["t_frac"])
        family = observable.pointer_family(lambda n: n**-0.25)
        tails = lambda k: np.array([1.0, 0.0], dtype=complex)
        macro = timed(steps, "macroscopic_check", lambda: [
            observable.macroscopic_check(family, list(pair), tails, PREFIX_HORIZON, tolerance=0.05)
            for pair in inputs["prefixes"]
        ])
        blocks = {n: timed(steps, f"ming block n={n}", lambda: ming.verify_exponential(ming.build_block(n, inputs["h"])))
                  for n in BLOCK_NS}
        return {
            "steps": steps,
            "sweeps": sweeps,
            "exponent": exponent,
            "limit_value": limit_value,
            "dense": dense,
            "evolved": evolved,
            "macro": [(m.passed, m.final_spread) for m in macro],
            "blocks": blocks,
        }

    @staticmethod
    def _dense_averages(a):
        out = []
        for n in DENSE_NS:
            state = dynamics.cocked_start(n, *a)
            for eps in EPSILONS:
                cocked = observable.CockedSet(n, eps)
                out.append((n, eps, dynamics.time_average_f(state, cocked, horizon=n).mean,
                            dynamics.orbit_compressed_average(state, cocked).mean))
        return out

    @staticmethod
    def _evolution(a, t):
        out = []
        for n in DENSE_NS:
            state = dynamics.cocked_start(n, *a)
            cocked = observable.CockedSet(n, 0.0)
            part = dynamics.evolve_combined(state, t)
            whole = dynamics.evolve_combined(part, 1.0 - t)
            step = dynamics.evolve_combined(state, 1)
            vec = np.zeros(1 << n, dtype=complex)
            for i, c in part.amp1.items():
                vec[i] = c
            out.append({
                "n": n,
                "composed": dict(whole.amp1),
                "step": dict(step.amp1),
                "orbits": bitlattice.decompose_orbits(n).q,
                "dense_f": observable.pointer_value(vec, cocked),
                "sparse_f": observable.pointer_value(dict(part.amp1), cocked),
            })
        return out

    def check(self, inputs, result) -> list[Outcome]:
        w1 = inputs["w1"]
        outcomes = []
        for eps, rows in result["sweeps"].items():
            for n, mean in rows:
                outcomes.append(Outcome(f"eps={eps} n={n} mean exact", abs(mean - _cocked_mean(w1, n, eps)) <= 1e-12))
        exponent = result["exponent"]
        outcomes.append(Outcome("eps=0 fitted exponent -1 +/- 0.05", exponent is not None and abs(exponent + 1.0) <= 0.05))
        outcomes.append(Outcome("limit value is |a1|^2", abs(result["limit_value"] - w1) <= 1e-12))
        for n, eps, dense, packed in result["dense"]:
            outcomes.append(Outcome(f"eps={eps} n={n} dense == compressed", abs(dense - packed) <= 1e-12))
            outcomes.append(Outcome(f"eps={eps} n={n} dense mean exact", abs(dense - _cocked_mean(w1, n, eps)) <= 1e-12))
        for row in result["evolved"]:
            n = row["n"]
            composed, step = row["composed"], row["step"]
            gap = max(abs(composed.get(i, 0) - step.get(i, 0)) for i in composed.keys() | step.keys())
            outcomes.append(Outcome(f"n={n} U(1-t)U(t) == U(1)", gap <= 1e-12))
            outcomes.append(Outcome(f"n={n} q == (2^n-2)/n", row["orbits"] == ((1 << n) - 2) // n))
            outcomes.append(Outcome(f"n={n} dense f_n == sparse f_n", abs(row["dense_f"] - row["sparse_f"]) <= 1e-12))
        for k, (passed, _) in enumerate(result["macro"]):
            outcomes.append(Outcome(f"prefix pair {k} pointer macroscopic", passed))
        for n, residual in result["blocks"].items():
            outcomes.append(Outcome(f"n={n} exp residual <= 1e-9", residual <= 1e-9))
        return outcomes

    def properties(self, inputs, result) -> dict:
        a0, a1 = inputs["a"]
        return {
            "a0": [a0.real, a0.imag],
            "a1": [a1.real, a1.imag],
            "born_weight": inputs["w1"],
            "fitted_exponent": result["exponent"],
            "max_exp_residual": max(result["blocks"].values()),
            "sweep_sites": len(EPSILONS) * sum(SWEEP_PRIMES),
        }


# ---------------------------------------------------------------------------
# cli-artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliConfig:
    argv: tuple[str, ...]
    expect: int  # documented exit code
    files: tuple[str, ...] = ()  # artifacts written, read back and compared
    stdout: bool = False  # result is printed rather than written

    @property
    def malformed(self) -> bool:
        return self.expect != 0


def _pair(flag: str, c: complex) -> str:
    # one token with "=": a leading minus would otherwise read as a new flag
    return f"{flag}={c.real!r},{c.imag!r}"


def _write_state_csv(path: Path, rng, n: int, terms: int) -> None:
    idx = rng.choice(1 << n, size=terms, replace=False)
    amp = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    amp /= np.linalg.norm(amp)
    lines = ["index,re,im"] + [f"{int(i)},{float(c.real)!r},{float(c.imag)!r}" for i, c in zip(idx, amp)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_curve_csv(path: Path, rng) -> None:
    gamma = rng.uniform(0.2, 0.6)
    omega = rng.uniform(1.0, 3.0)
    tau = np.linspace(0.0, 20.0, 200)
    values = np.exp(-gamma * tau) * (1.0 + 0.05 * np.cos(omega * tau))
    lines = ["tau,value"] + [f"{float(t)!r},{float(v)!r}" for t, v in zip(tau, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


MALFORMED = (
    # the first two are known to miss exit code 2 (a NaN amplitude exits 0;
    # oversample 0 escapes as ValueError) and stay in the mix
    ("nan", ("born", "sweep", "--a0", "nan,0", "--a1", "0,1", "--n", "5,7")),
    ("oversample0", ("fkm", "autocorr", "--mode", "time", "--n", "8", "--oversample", "0")),
    ("nonprime", ("born", "sweep", "--n", "5,9")),
    ("tausteps1", ("fkm", "autocorr", "--n", "16", "--tau-steps", "1")),
)
CLI_BLOCKS = 12  # 9 configs each, run twice: 216 invocations per pass, 10 beyond p95


def cli_configs(rng, workdir: Path) -> list[CliConfig]:
    """CLI_BLOCKS blocks of 8 well-formed configs and 1 malformed one (exit code 2).

    Sizes are fixed per block position and the seed draws only values, so
    every seed does the same amount of work.
    """
    configs = []

    def artifact(name, *extra):
        return str(workdir / name), (name, name + ".provenance.json", *extra)

    for k in range(CLI_BLOCKS):
        slot = k % 4
        a0, a1 = _amplitudes(rng)
        path, files = artifact(f"sweep{k}.csv")
        configs.append(CliConfig(("born", "sweep", _pair("--a0", a0), _pair("--a1", a1), "--n", "5,7,11,13",
                                  "--epsilon", str(EPSILONS[slot % 2]), "--out", path), 0, files))
        a0, a1 = _amplitudes(rng)
        path, files = artifact(f"limit{k}.json")
        configs.append(CliConfig(("limit", "compare", _pair("--a0", a0), _pair("--a1", a1), "--out", path), 0, files))
        path, files = artifact(f"verify{k}.csv")
        configs.append(CliConfig(("ming", "verify", "--n", str(DENSE_NS[slot]), "--h", repr(rng.uniform(0.5, 2.0)),
                                  "--out", path), 0, files))
        n = (5, 7, 8, 9)[slot]
        state = workdir / f"state{k}.csv"
        _write_state_csv(state, rng, n, terms=24)
        configs.append(CliConfig(("observable", "fn", "--n", str(n), "--epsilon", repr(rng.uniform(0.0, 0.4)),
                                  "--state", str(state)), 0, stdout=True))
        path, files = artifact(f"analytic{k}.csv", f"analytic{k}.svg")
        configs.append(CliConfig(("fkm", "autocorr", "--n", str((64, 128, 256, 512)[slot]),
                                  "--beta", repr(rng.uniform(0.5, 2.0)), "--out", path,
                                  "--svg", str(workdir / f"analytic{k}.svg")), 0, files))
        path, files = artifact(f"mc{k}.csv")
        configs.append(CliConfig(("fkm", "autocorr", "--mode", "mc", "--n", str((8, 16)[slot % 2]),
                                  "--samples", "2000", "--seed", str(int(rng.integers(1 << 30))), "--out", path),
                                 0, files))
        path, files = artifact(f"time{k}.csv")
        configs.append(CliConfig(("fkm", "autocorr", "--mode", "time", "--n", "8", "--tau-steps", "50",
                                  "--horizon-periods", "200", "--oversample", "2",
                                  "--seed", str(int(rng.integers(1 << 30))), "--out", path), 0, files))
        curve = workdir / f"curve{k}.csv"
        _write_curve_csv(curve, rng)
        configs.append(CliConfig(("fkm", "oufit", "--in", str(curve)), 0, stdout=True))
        name, argv = MALFORMED[slot]
        path, files = artifact(f"bad-{name}{k}.csv")
        configs.append(CliConfig(argv + ("--out", path), 2, files))
    return configs


class CliArtifacts:
    name = "cli-artifacts"
    step_invocations = True

    def setup(self, seed: int, workdir: Path):
        configs = cli_configs(np.random.default_rng(seed), workdir)
        # one pass runs every config twice so reruns can be compared byte for byte
        return {"configs": configs, "order": list(range(len(configs))) * 2, "workdir": workdir}

    def run_pass(self, inputs):
        workdir, configs = inputs["workdir"], inputs["configs"]
        records, steps = [], {}
        for position, index in enumerate(inputs["order"]):
            config = configs[index]
            for name in config.files:
                (workdir / name).unlink(missing_ok=True)
            code, error, stdout = timed(steps, f"{position:03d} {' '.join(config.argv[:2])}", invoke, config.argv)
            files = {}
            for name in config.files:
                path = workdir / name
                files[name] = path.read_bytes() if path.exists() else None
            records.append({"config": index, "code": code, "error": error, "stdout": stdout, "files": files})
        return {"steps": steps, "records": records}

    def check(self, inputs, result) -> list[Outcome]:
        configs = inputs["configs"]
        first: dict[int, dict] = {}
        outcomes = []
        for record in result["records"]:
            config = configs[record["config"]]
            label = " ".join(config.argv[:2]) + f" #{record['config']}"
            if record["error"] is not None or record["code"] != config.expect:
                outcomes.append(Outcome(label, False, operation=True))
            elif config.malformed:
                outcomes.append(Outcome(label, True))
            else:
                reference = first.setdefault(record["config"], record)
                outcomes.append(Outcome(label, self._artifacts_ok(config, record, reference)))
        return outcomes

    @staticmethod
    def _artifacts_ok(config: CliConfig, record, reference) -> bool:
        if config.stdout:
            text = record["stdout"]
            if not text or text != reference["stdout"]:
                return False
            try:
                if config.argv[0] == "observable":
                    return 0.0 <= float(text) <= 1.0
                return _strict_json(text)["gamma"] > 0
            except (ValueError, KeyError, TypeError):
                return False
        for name in config.files:
            blob = record["files"][name]
            if blob is None or not blob:
                return False
            if name.endswith(".provenance.json"):
                if not _is_strict_json(blob):
                    return False
            elif blob != reference["files"][name]:
                return False
        return True

    def properties(self, inputs, result) -> dict:
        configs = inputs["configs"]
        return {
            "configs": len(configs),
            "malformed_share": sum(c.malformed for c in configs) / len(configs),
        }


WORKLOADS = {w.name: w for w in (Reproduce(), RingScale(), AmplifierScale(), CliArtifacts())}
