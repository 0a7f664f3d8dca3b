"""Release gate: the eight numbered checks behind `mingsim reproduce`.

Each criterion function recomputes its claim from scratch and returns a
pass/fail plus a one-line detail with the measured numbers.  Stochastic
criteria run at pinned seeds; the seeds and any measured thresholds were
selected on pilot runs and are frozen here on purpose, never recomputed
silently.  Each check calls the library through its module attributes
(`ming.build_block`, `fkm.ou_fit`, ...), so a test can swap in a broken
kernel with monkeypatch and see which criteria catch it.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, fkm, ming, observable, thermolimit

AMPLITUDES = (
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    (0.6, 0.8j),
)

DENSE_NS = (5, 7, 11, 13)
COMPRESSED_NS = (101, 1009)


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    passed: bool
    detail: str
    seconds: float


def _a1():
    """Stroboscopic one-period mean equals |a1|^2 (1 - 1/n) to 1e-12."""
    worst = 0.0
    for a0, a1 in AMPLITUDES:
        w1 = abs(a1) ** 2
        for n in DENSE_NS:
            state = dynamics.cocked_start(n, a0, a1)
            res = dynamics.time_average_f(state, observable.CockedSet(n, 0.0), horizon=n)
            worst = max(worst, abs(res.mean - w1 * (1.0 - 1.0 / n)))
        for n in COMPRESSED_NS:
            state = dynamics.cocked_start(n, a0, a1)
            res = dynamics.orbit_compressed_average(state, observable.CockedSet(n, 0.0))
            worst = max(worst, abs(res.mean - w1 * (1.0 - 1.0 / n)))
    return worst <= 1e-12, f"max |mean - born*(1-1/n)| = {worst:.2e} (tol 1e-12)"


def _a2():
    """Block exponential reproduces the cycle; entry moduli track h/(2pi s)."""
    worst = 0.0
    for n in (1, 2, 3, 5, 7):
        block = ming.build_block(n, h=1.0)
        worst = max(worst, ming.verify_exponential(block))
    approx = ming.offdiagonal_approximation_error(ming.build_block(101, h=1.0))
    ok = worst <= 1e-9 and approx <= 0.05
    return ok, f"max exp residual {worst:.2e} (tol 1e-9), n=101 entry error {approx:.4f} (tol 0.05)"


def _a3():
    """Sweep intercept matches the two-point weight; error decay exponent -1."""
    details = []
    ok = True
    for a0, a1 in ((0.6, 0.8j), (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))):
        sweep = dynamics.born_limit_sweep((a0, a1), list(DENSE_NS) + list(COMPRESSED_NS))
        report = thermolimit.compare_limit((a0, a1), sweep, tolerance=1e-3)
        gap = abs(report.fitted_intercept - report.limit_value)
        ok = ok and gap <= 1e-3 and abs(report.fitted_exponent + 1.0) <= 0.05
        details.append(f"intercept gap {gap:.1e}, exponent {report.fitted_exponent:+.4f}")
    return ok, "; ".join(details) + " (tols 1e-3, -1 +/- 0.05)"


def _qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _product_state(factors):
    # site k occupies bit k, so later factors go on the high side
    state = np.ones(1, dtype=complex)
    for f in factors:
        state = np.kron(f, state)
    return state


def _prefix_pair(rng, sites, forced_flip):
    """Two product states over `sites` qubits differing in at most two factors."""
    base = [_qubit(rng) for _ in range(sites)]
    flips = {forced_flip}
    if rng.random() < 0.5:
        flips.add(int(rng.integers(sites)))
    partner = list(base)
    for s in flips:
        partner[s] = _qubit(rng)
    return _product_state(base), _product_state(partner)


def _a4():
    """Pointer family insensitive across near-identical prefixes; site variable is not."""
    n0, horizon, pairs, seed = 6, 13, 20, 2024
    rng = np.random.default_rng(seed)
    pointer = observable.pointer_family(lambda n: n**-0.25)
    local = observable.first_site_family()
    tails = lambda n: np.array([1.0, 0.0], dtype=complex)
    pointer_spread = 0.0
    local_spread = 0.0
    pointer_ok = True
    for k in range(pairs):
        base, partner = _prefix_pair(rng, n0, forced_flip=k % n0)
        rep_p = observable.macroscopic_check(pointer, [base, partner], tails, horizon, tolerance=0.05)
        rep_l = observable.macroscopic_check(local, [base, partner], tails, horizon, tolerance=0.05)
        pointer_ok = pointer_ok and rep_p.passed
        pointer_spread = max(pointer_spread, rep_p.final_spread)
        local_spread = max(local_spread, rep_l.final_spread)
    ok = pointer_ok and pointer_spread <= 0.05 and local_spread >= 0.2
    return ok, (
        f"pointer spread {pointer_spread:.2e} (tol 0.05), "
        f"site-0 spread {local_spread:.3f} (must be >= 0.2)"
    )


def _a5():
    """Analytic curve exact at 0; Monte-Carlo within 3 stderr everywhere."""
    tau = np.linspace(0.0, 20.0, 200)
    ok = True
    worst_z = 0.0
    for n in (8, 256):
        chain = fkm.scaled_ring(n, beta=1.0)
        ana = fkm.phase_autocorrelation(chain, tau)
        ok = ok and ana.values[0] == 1.0  # 1/beta at beta = 1, exact
        mc = fkm.mc_phase_autocorrelation(chain, tau, samples=100_000, seed=10)
        worst_z = max(worst_z, float(np.max(np.abs(mc.values - ana.values) / mc.stderr)))
    ok = ok and worst_z < 3.0
    return ok, f"g(0) exact, max |mc - analytic|/stderr = {worst_z:.2f} (tol 3)"


def _a6():
    """One Gibbs trajectory reproduces the phase curve; one excited mode does not."""
    # plain unit-coupling ring: the scaled family's conserved mode-energy
    # fluctuations put the sup gap near 0.2 for every seed, see ledger
    chain = fkm.HarmonicChain(n=256, beta=1.0, omega0_sq=1.0, kappa=1.0)
    tau = np.linspace(0.0, 20.0, 200)
    horizon = 1e4 * 2.0 * math.pi / fkm.dft_frequencies(chain).max()
    typical = fkm.time_autocorrelation(chain, fkm.sample_gibbs(chain, 8), horizon, tau, oversample=4)
    violator_state = fkm.single_mode_state(chain, 127, energy=chain.n / chain.beta)
    violator = fkm.time_autocorrelation(chain, violator_state, horizon, tau, oversample=4)
    threshold = 0.1 / chain.beta
    ok = typical.sup_gap <= threshold and violator.sup_gap > threshold
    return ok, (
        f"typical gap {typical.sup_gap:.4f} (tol {threshold}), "
        f"single-mode gap {violator.sup_gap:.2f} (must exceed)"
    )


def _a7():
    """OU residual trend nonincreasing in n; small ring recurs to 99% of g(0)."""
    tau = np.linspace(0.0, 20.0, 200)
    resids = []
    for n in (64, 256, 1024):
        curve = fkm.phase_autocorrelation(fkm.scaled_ring(n, beta=1.0), tau)
        resids.append(fkm.ou_fit(curve).residual)
    trend_ok = resids[0] >= resids[1] >= resids[2]
    tau_star, peak = fkm.recurrence_peak(fkm.scaled_ring(8, beta=1.0), tau_max=1e4, dt=0.01, skip=1.0)
    recur_ok = peak >= 0.99
    ok = trend_ok and recur_ok
    resid_txt = " >= ".join(f"{r:.3f}" for r in resids)
    return ok, f"residuals {resid_txt}, recurrence |g|={peak:.4f} at tau={tau_star:.1f} (tol 0.99)"


def _a8():
    """Same config, same bytes; dense and compressed paths agree to 1e-12."""
    from . import cli  # deferred: cli drives acceptance through `reproduce`

    worst = 0.0
    for a0, a1 in AMPLITUDES:
        for n in DENSE_NS:
            for eps in (0.0, 0.2):
                state = dynamics.cocked_start(n, a0, a1)
                cocked = observable.CockedSet(n, eps)
                dense = dynamics.time_average_f(state, cocked, horizon=n).mean
                packed = dynamics.orbit_compressed_average(state, cocked).mean
                worst = max(worst, abs(dense - packed))
    paths_ok = worst <= 1e-12

    bytes_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in {
            "sweep": ["born", "sweep", "--a0", "0.6,0", "--a1", "0,0.8", "--n", "5,7,11,13", "--epsilon", "0", "--out"],
            "curve": ["fkm", "autocorr", "--n", "8", "--beta", "1.0", "--mode", "mc", "--samples", "2000", "--seed", "42", "--out"],
        }.items():
            blobs = []
            for run in (1, 2):
                out = Path(tmp) / f"{name}-{run}.csv"
                code = cli.main(argv + [str(out)])
                if code != 0:
                    return False, f"cli exited {code} during byte-identity check"
                blobs.append(out.read_bytes())
            bytes_ok = bytes_ok and blobs[0] == blobs[1]
    ok = paths_ok and bytes_ok
    return ok, f"path gap {worst:.2e} (tol 1e-12), reruns byte-identical: {bytes_ok}"


_CRITERIA = {
    "A1": (_a1, "Born-weight one-period averages", 10.0),
    "A2": (_a2, "cycle exponential and entry asymptotics", 5.0),
    "A3": (_a3, "two-point limit intercept and decay exponent", 10.0),
    "A4": (_a4, "macroscopic pointer vs local site variable", 30.0),
    "A5": (_a5, "phase autocorrelation, analytic vs Monte-Carlo", 60.0),
    "A6": (_a6, "trajectory time average vs phase average", 120.0),
    "A7": (_a7, "exponential-decay trend and recurrence", 60.0),
    "A8": (_a8, "determinism and path equivalence", 120.0),
}

CRITERION_IDS = tuple(_CRITERIA)


def run_criterion(criterion: str) -> CriterionResult:
    fn, _, budget = _CRITERIA[criterion]
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"
    return CriterionResult(criterion=criterion, passed=bool(passed), detail=detail, seconds=elapsed)


def run_all(only=None) -> list[CriterionResult]:
    ids = CRITERION_IDS if only is None else tuple(only)
    return [run_criterion(cid) for cid in ids]
