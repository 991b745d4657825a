"""The four benchmark workloads and their independent output checks.

Each workload is a closed loop driven by one client: op ``i`` is issued
only after op ``i - 1`` returned.  Inputs come from the benchmark seed;
the library receives only the generated signals, weights and parameters.
Ops are indexed, so op ``i`` is the same computation in every run with
the same seed, however many ops a run completes.

Library functions are always called through their module attribute
(``operators.gl_tempered``), never through a name bound at import time,
so the span recorder sees every call.

``check`` returns ``(ok, ratio, detail)`` where ``ratio`` is the worst
``deviation / tolerance`` of the op's output checks (0 for checks that
compare bytes or exit codes).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import nablatc.laplace as laplace
import nablatc.operators as operators
import nablatc.presets as presets
import nablatc.signals as signals
import nablatc.suite as suite
import nablatc.taylor as taylor
from nablatc.signals import Grid, Signal

U = 2.0**-53
PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-ratio step: every prefix covers [0, 1) evenly
SILVER = math.sqrt(2.0) - 1.0  # a second irrational step, independent of PHI


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * U / (1.0 - n * U)


def kronecker(t0: float, j: int, step: float = PHI) -> float:
    """j-th point of a low-discrepancy sequence on [0, 1) starting at t0."""
    return (t0 + j * step) % 1.0


def gl_coeffs(order: float, n: int) -> np.ndarray:
    """c_i(order) by c_i = c_{i-1} (i - 1 - order) / i, written independently of the library."""
    i = np.arange(1, n)
    return np.cumprod(np.concatenate(([1.0], (i - 1 - order) / i)))


def signed_binomials(n: int) -> np.ndarray:
    return np.array([(-1.0) ** j * math.comb(n, j) for j in range(n + 1)])


def fractional_order(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Order in (lo, hi) at least 0.05 away from every integer."""
    while True:
        a = float(rng.uniform(lo, hi))
        if abs(a - round(a)) >= 0.05:
            return a


def kind_order(rng: np.random.Generator, kind: str) -> float:
    """gl: any non-integer order in (-1.95, 1.95); rl/caputo: (0.05, 1.95); nabla: 1..3."""
    if kind == "gl":
        return fractional_order(rng, -1.95, 1.95)
    if kind == "nabla":
        return int(rng.integers(1, 4))
    return fractional_order(rng, 0.05, 1.95)


def worst_ratio(reports) -> float:
    worst = 0.0
    for r in reports:
        if r.tolerance > 0:
            worst = max(worst, r.max_abs_dev / r.tolerance)
        elif r.max_abs_dev > 0:
            worst = math.inf
    return worst


class Workload:
    """Interface shared by the workloads."""

    name = ""
    #: Host-speed gauge that scales this workload's timings (see speed.py).
    gauge = "loop"

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[bool, float, str]:
        raise NotImplementedError

    def trace_ops(self) -> range:
        """The fixed op list of the traced run (counts repeat exactly)."""
        raise NotImplementedError

    def trace_extra(self, latencies: list[tuple[int, float]]) -> dict:
        """Per-layer measurements the traced run takes besides its spans.

        ``latencies`` holds (op index, seconds) of the untraced pass.
        """
        return {}

    def known_defects(self) -> list[dict]:
        """Probes of defects that exist today; they run once, outside the loop."""
        return []


# ---------------------------------------------------------------------------
# verify: one full run_suite pass per op
# ---------------------------------------------------------------------------


#: Ops run `nt verify --seed i` passes for i in 0..99, in an order drawn
#: from the benchmark seed; every one of them passes today.
VERIFY_SEEDS = 100
#: Suite seeds on which a group exceeds its tolerance today.
VERIFY_FAILING = ((115, "diff-of-sum"), (1128935333, "taylor-remainder"))


class Verify(Workload):
    name = "verify"

    def __init__(self, seed: int, work: str, root: str) -> None:
        rng = np.random.default_rng([seed, 11])
        self.seeds = [int(s) for s in rng.permutation(VERIFY_SEEDS)]
        self.n_checks: int | None = None

    def op(self, i):
        return suite.run_suite(seed=self.seeds[i % len(self.seeds)], tolerance_scale=1.0)

    def check(self, i, reports):
        n = len(reports)
        if self.n_checks is None:
            self.n_checks = n
        failed = [r.identity_id for r in reports if not r.passed]
        ok = not failed and n == self.n_checks and n > 0
        return ok, worst_ratio(reports), f"{n} checks, failed: {failed[:5]}"

    def trace_ops(self):
        return range(1)

    def trace_extra(self, latencies):
        """Time each suite group from outside, on the seed of the traced pass.

        Each group draws from its own stream, so these runs see the same
        instances as the full pass.  They run under a span recorder, as the
        traced pass does, so their walls add up to the traced pass time.
        """
        from tracer import Tracer

        seed = self.seeds[0]
        out = {}
        for name, _ in suite.GROUPS:
            with Tracer():
                t0 = time.perf_counter()
                reports = suite.run_suite(seed=seed, groups=(name,), tolerance_scale=1.0)
                wall = time.perf_counter() - t0
            out[f"suite.{name}.wall_s"] = wall
            out[f"suite.{name}.checks"] = len(reports)
            out[f"suite.{name}.worst_dev_ratio"] = worst_ratio(reports)
        return out

    def known_defects(self):
        """Suite seeds whose instances are not conditioned for their tolerance."""
        out = []
        for seed, group in VERIFY_FAILING:
            reports = suite.run_suite(seed=seed, groups=(group,), tolerance_scale=1.0)
            bad = sum(not r.passed for r in reports)
            out.append(
                {
                    "name": f"suite-seed-{seed}-{group}",
                    "fixed": bad == 0,
                    "observed": f"{bad} of {len(reports)} checks fail, worst ratio {worst_ratio(reports):.3g}",
                }
            )
        return out


# ---------------------------------------------------------------------------
# horizon: one operator evaluation at large N per op
# ---------------------------------------------------------------------------

HORIZON_KINDS = ("gl", "rl", "caputo", "nabla")
HORIZON_N = (1000, 8000)
HORIZON_STRATA = 32  # per kind
HORIZON_POOL = 4 * HORIZON_STRATA
HORIZON_CHECK_POINTS = 28


def bit_reversed(n: int) -> list[int]:
    """0..n-1 (n a power of two) in bit-reversed order: every prefix is spread evenly."""
    bits = n.bit_length() - 1
    return [int(format(j, f"0{bits}b")[::-1], 2) for j in range(n)]


class Horizon(Workload):
    """Pool of 128 prebuilt (signal, weight) pairs; each op draws a fresh order.

    N is log-uniform in [1000, 8000], stratified: each kind has one entry
    per stratum of log N, at a seeded point inside it, and the strata are
    visited in bit-reversed order so that every prefix of the op sequence
    spans the range.  Inputs repeat every 128 ops; orders never repeat.
    """

    name = "horizon"

    def __init__(self, seed: int, work: str, root: str) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 21])
        lo, hi = (math.log(n) for n in HORIZON_N)
        strata = bit_reversed(HORIZON_STRATA)
        self.inputs = []
        for p in range(HORIZON_POOL):
            kind_idx, j = p % 4, p // 4
            u = (strata[j] + rng.random()) / HORIZON_STRATA
            N = int(round(math.exp(lo + u * (hi - lo))))
            a = round(float(rng.uniform(-4.0, 4.0)), 3)
            grid = Grid(a, history=3, horizon=N)
            # every eighth gl entry is a constant under the unit weight,
            # which has the closed form c(alpha - 1)
            closed = kind_idx == 0 and j % 8 == 0
            sig = "const" if closed else ("normal", "sin10k", "poly", "geom")[int(rng.integers(4))]
            wname = "one" if closed else ("one", "case3", "case4", "exp")[int(rng.integers(4))]
            self.inputs.append((sig, wname, self._signal(rng, sig, grid), self._weight(rng, wname, grid)))

    @staticmethod
    def _signal(rng, family, grid):
        t = grid.offsets() / grid.horizon
        if family == "const":
            vals = np.full(grid.npoints, float(rng.uniform(-2.0, 2.0)))
        elif family == "normal":
            vals = rng.standard_normal(grid.npoints)
        elif family == "sin10k":
            vals = np.sin(10.0 * grid.k_values())
        elif family == "poly":
            c = rng.uniform(-2.0, 2.0, size=int(rng.integers(1, 5)))
            vals = sum(cj * t**j for j, cj in enumerate(c))
        else:
            vals = np.exp(float(rng.uniform(-8.0, 8.0)) * t)
        return Signal(grid, vals)

    @staticmethod
    def _weight(rng, name, grid):
        if name != "exp":
            return presets.preset_weight(name, grid)
        # |log(1 - lambda)| N <= 12 keeps w within e^+-12 on the grid
        lam = 1.0 - math.exp(float(rng.uniform(-12.0, 12.0)) / grid.horizon)
        return signals.make_weight(grid, rate=lam)

    def params(self, i):
        kind = HORIZON_KINDS[i % 4]
        return kind, kind_order(np.random.default_rng([self.seed, 22, i]), kind)

    def op(self, i):
        _, _, x, w = self.inputs[i % HORIZON_POOL]
        kind, order = self.params(i)
        if kind == "gl":
            return operators.gl_tempered(x, order, w)
        if kind == "rl":
            return operators.rl_tempered(x, order, w)
        if kind == "caputo":
            return operators.caputo_tempered(x, order, w)
        return operators.nabla_n_tempered(x, order, w)

    def check(self, i, y):
        """Direct evaluation at sampled points against the rounding envelope.

        The reference sums the same terms in another order (numpy dot), so
        both results lie within gamma_N sum |c_i z_(k-i)| of the exact sum;
        coefficient recurrences add gamma_3N relative error per term.
        """
        sig, wname, x, w = self.inputs[i % HORIZON_POOL]
        kind, order = self.params(i)
        N, h = x.grid.horizon, x.grid.history
        z = w.values * x.values  # index h + m holds lattice offset m
        az = np.abs(z)
        wb = w.values[h + 1 :]
        yb = y.body
        if len(yb) != N or not np.all(np.isfinite(yb)):
            return False, math.inf, "wrong length or non-finite output"
        rng = np.random.default_rng([self.seed, 23, i])
        pts = sorted({1, 2, 3, N, *(int(m) for m in rng.integers(1, N + 1, HORIZON_CHECK_POINTS))})

        if kind == "gl":
            n = 0
        else:
            n = order if kind == "nabla" else math.ceil(order)
        c = gl_coeffs(order - n, N)
        b = signed_binomials(n)
        if kind == "caputo":
            # the integer stage acts first: D(m) = sum_j b_j z(m - j), m = 1..N
            inner = sum(b[j] * z[h + 1 - j : h + N + 1 - j] for j in range(n + 1))
            inner_env = sum(abs(b[j]) * az[h + 1 - j : h + N + 1 - j] for j in range(n + 1))
            outer = np.ones(1)
        else:
            inner, inner_env = z[h + 1 :], az[h + 1 :]
            outer = b if kind in ("rl", "nabla") else np.ones(1)
        ac = np.abs(c)

        def fractional(m):  # (sum, envelope) of the causal sum at offset m >= 1
            if m < 1:
                return 0.0, 0.0
            return (
                float(np.dot(c[:m], inner[m - 1 :: -1])),
                float(np.dot(ac[:m], inner_env[m - 1 :: -1])),
            )

        worst = 0.0
        for m in pts:
            if kind == "nabla":
                val = sum(b[j] * z[h + m - j] for j in range(n + 1))
                env = sum(abs(b[j]) * az[h + m - j] for j in range(n + 1))
            else:
                parts = [fractional(m - j) for j in range(len(outer))]
                val = sum(outer[j] * parts[j][0] for j in range(len(outer)))
                env = sum(abs(outer[j]) * parts[j][1] for j in range(len(outer)))
            ref = val / wb[m - 1]
            tol = 2.0 * (gamma(3 * N) + gamma(N + 8)) * env / abs(wb[m - 1]) + 2.0 * U * abs(ref)
            dev = abs(yb[m - 1] - ref)
            worst = max(worst, dev / tol if tol > 0 else (0.0 if dev == 0 else math.inf))

        if sig == "const" and kind == "gl":
            # partial sums of c(alpha) are c(alpha - 1): y(m) = x0 c_(m-1)(alpha - 1)
            x0 = x.values[0]
            shifted = gl_coeffs(order - 1.0, N)
            closed = x0 * shifted
            env = (np.cumsum(ac) + np.abs(shifted)) * abs(x0)
            tol = 2.0 * gamma(4 * N + 8) * env + 2.0 * U * np.abs(closed)
            worst = max(worst, float(np.max(np.abs(yb - closed) / tol)))
        return worst <= 1.0, worst, f"{kind} order {order} N {N} {sig}/{wname}"

    def trace_ops(self):
        return range(HORIZON_POOL // 2)


# ---------------------------------------------------------------------------
# relaxation: solver to N_f, kernel to N_m, agreement on the shared prefix
# ---------------------------------------------------------------------------

RELAX_NF = (500, 2000)
#: Largest kernel horizon at which ml_function agrees with the stepper to
#: 1e-10 over the whole (alpha, mu) box; see README.md for the frontier.
RELAX_NM = (32, 64)
RELAX_TOL = 1e-10
RELAX_CHECK_POINTS = 24
#: The solution grows like (1 - mu^(1/alpha))^(-k) for mu > 0; mu is
#: redrawn until that stays below e^400 at N_f, inside binary64 range.
RELAX_MAX_GROWTH = 400.0


class Relaxation(Workload):
    name = "relaxation"

    def __init__(self, seed: int, work: str, root: str) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 31])
        grid = Grid(0.0, history=0, horizon=RELAX_NF[1])
        self.weights = [(n, presets.preset_weight(n, grid)) for n in ("one", "case1", "case3", "case4")]
        for lam in rng.uniform(-0.01, 0.01, size=4):
            self.weights.append((f"exp:{lam:.6f}", signals.make_weight(grid, rate=float(lam))))

    def params(self, i):
        """The horizons follow a fixed low-discrepancy sequence (op 0, the
        warm-up, sits mid-range); the seed draws alpha, mu and x(a)."""
        rng = np.random.default_rng([self.seed, 32, i])
        n_f = RELAX_NF[0] + int(kronecker(0.5, i) * (RELAX_NF[1] - RELAX_NF[0] + 1))
        alpha = float(rng.uniform(0.3, 0.9))
        while True:
            mu = float(rng.uniform(-0.5, 0.5))
            if mu <= 0 or -n_f * math.log1p(-(mu ** (1.0 / alpha))) <= RELAX_MAX_GROWTH:
                break
        x0 = float(rng.uniform(0.5, 2.0))
        n_m = RELAX_NM[0] + int(kronecker(0.5, i, SILVER) * (RELAX_NM[1] - RELAX_NM[0] + 1))
        return alpha, mu, x0, n_f, n_m, i % len(self.weights)

    def op(self, i):
        alpha, mu, x0, n_f, n_m, wi = self.params(i)
        w = self.weights[wi][1]
        sol = laplace.fde_solve(alpha, mu, w, x0, n_f)
        kern = laplace.ml_function(laplace.MLParams(alpha, 1.0, mu), n_m)
        return sol, kern

    def check(self, i, out):
        """Kernel agreement on the prefix, and the step residual at sampled points.

        Agreement: w(k) x(k) = F(mu, k, a) w(a) x(a) to 1e-10 per unit, the
        suite's ml-solver tolerance.  Residual: every step solves
        (1 - mu) z(m) = z(0) - sum_(i>=1) c_i (z(m-i) - z(0)); the residual
        is bounded by the rounding envelope of that sum.
        """
        sol, kern = out
        alpha, mu, x0, n_f, n_m, wi = self.params(i)
        w = self.weights[wi][1]
        z = w.window(0, n_f) * sol.values
        rhs = kern.values * (w.at(0) * x0)
        agree = float(np.max(np.abs(z[: n_m + 1] - rhs) / np.maximum(1.0, np.abs(rhs))))
        worst = agree / RELAX_TOL

        c = gl_coeffs(alpha, n_f + 1)
        rng = np.random.default_rng([self.seed, 33, i])
        pts = {1, 2, n_f, *(int(m) for m in rng.integers(1, n_f + 1, RELAX_CHECK_POINTS))}
        z0 = z[0]
        for m in sorted(pts):
            lag = z[m - 1 : 0 : -1] - z0  # z(m - i) - z(0), i = 1..m-1
            resid = (1.0 - mu) * z[m] - z0 + float(np.dot(c[1:m], lag))
            env = abs((1.0 - mu) * z[m]) + abs(z0) + float(np.dot(np.abs(c[1:m]), np.abs(z[m - 1 : 0 : -1]) + abs(z0)))
            worst = max(worst, abs(resid) / (4.0 * gamma(3 * n_f + 8) * env))
        detail = f"alpha {alpha:.3f} mu {mu:.3f} N_f {n_f} N_m {n_m} {self.weights[wi][0]}"
        return worst <= 1.0, worst, detail

    def trace_ops(self):
        return range(12)

    def known_defects(self):
        # ml_function loses the kernel without raising once the alternating
        # series outgrows its compensated sum: at (0.9, -0.5) from N ~ 100
        alpha, mu, n = 0.9, -0.5, 150
        grid = Grid(0.0, history=0, horizon=n)
        sol = laplace.fde_solve(alpha, mu, presets.preset_weight("one", grid), 1.0, n)
        try:
            kern = laplace.ml_function(laplace.MLParams(alpha, 1.0, mu), n)
        except laplace.SeriesDiverged:
            return [{"name": "ml-function-silent-divergence", "fixed": True, "observed": "raises SeriesDiverged"}]
        dev = float(np.max(np.abs(sol.values - kern.values) / np.maximum(1.0, np.abs(kern.values))))
        return [
            {
                "name": "ml-function-silent-divergence",
                "fixed": dev <= RELAX_TOL,
                "observed": f"alpha {alpha} mu {mu} N {n}: deviation {dev:.3g} from the stepper, no error raised",
            }
        ]


# ---------------------------------------------------------------------------
# cli: one `nt` process per op
# ---------------------------------------------------------------------------

CHILD_TIMEOUT_S = 120.0


class Cli(Workload):
    """A fixed recipe list, parameters drawn from the seed, cycled in order.

    Every success op is compared byte for byte with the in-process library
    result, which also makes every rerun of a recipe byte-identical.
    Error-path ops must return the exit code the ``cli`` docstring gives
    (2 configuration, 3 numeric) without a traceback.
    """

    name = "cli"
    gauge = "process"

    def __init__(self, seed: int, work: str, root: str) -> None:
        self.work = work
        self.src = os.path.join(root, "src")
        self.shim = os.path.join(root, "benchmarks", "cli_child.py")
        self.tracing = False
        self.child_dumps: list[str] = []
        self._refs: dict[int, object] = {}
        rng = np.random.default_rng([seed, 41])
        self.specs = [recipe(rng, self, k) for k, recipe in enumerate(CLI_RECIPES)]

    def env(self, extra=None):
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "NT_TOLERANCE_SCALE")}
        env["PYTHONPATH"] = self.src
        env.update(extra or {})
        return env

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def spawn(self, argv, env_extra=None):
        """Run one process to completion; a timeout raises and fails the op."""
        return subprocess.run(
            argv,
            env=self.env(env_extra),
            cwd=self.work,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )

    def launch(self, args, env_extra=None):
        if self.tracing:
            dump = self.path(f"run{len(self.child_dumps)}.spans.json")
            self.child_dumps.append(dump)
            argv = [sys.executable, self.shim, dump, *args]
        else:
            argv = [sys.executable, "-m", "nablatc.cli", *args]
        return self.spawn(argv, env_extra)

    def op(self, i):
        spec = self.specs[i % len(self.specs)]
        for f in spec["files"]:
            if os.path.exists(f):
                os.remove(f)
        return self.launch(spec["argv"])

    def check(self, i, res):
        k = i % len(self.specs)
        spec = self.specs[k]
        if b"Traceback" in res.stderr:
            return False, 0.0, f"{spec['name']}: traceback"
        if res.returncode != spec["code"]:
            return False, 0.0, f"{spec['name']}: exit {res.returncode}, expected {spec['code']}"
        if spec["code"] != 0:
            return True, 0.0, spec["name"]
        if k not in self._refs:
            self._refs[k] = spec["ref"]()
        got = [_file_bytes(f) if os.path.exists(f) else None for f in spec["files"]] or [res.stdout]
        ok = got == self._refs[k]
        return ok, 0.0, spec["name"] + ("" if ok else ": output differs from the in-process result")

    def trace_ops(self):
        return range(len(self.specs))

    def trace_extra(self, latencies):
        """Wall time per subcommand over the untraced pass, and start-up cost:
        the median of five processes that only import nablatc.cli."""
        out = {f"cli.{cmd}.wall_s": 0.0 for cmd in CLI_COMMANDS}
        for i, lat in latencies:
            out[f"cli.{self.specs[i % len(self.specs)]['argv'][0]}.wall_s"] += lat
        walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            res = self.spawn([sys.executable, "-c", "import nablatc.cli"])
            walls.append(time.perf_counter() - t0)
            if res.returncode != 0:
                raise RuntimeError(f"import nablatc.cli failed: {res.stderr.decode(errors='replace')}")
        out["cli.startup_s"] = float(np.median(walls))
        return out

    def known_defects(self):
        """Invocations that should fail cleanly with exit 2 but do not today."""
        probes = [
            ("missing-signal-csv", ["eval", "--kind", "gl", "--order", "0.5", "--signal", self.path("missing.csv"), "--out", self.path("p.csv")], None, 2),
            ("out-dir-missing", ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k", "--out", self.path("nodir", "p.csv")], None, 2),
            ("tolerance-scale-abc", ["verify", "--only", "convolution", "--out", self.path("p.json")], {"NT_TOLERANCE_SCALE": "abc"}, 2),
            ("tolerance-scale-nan", ["verify", "--only", "convolution", "--out", self.path("p.json")], {"NT_TOLERANCE_SCALE": "nan"}, 2),
            ("tolerance-scale-negative", ["verify", "--only", "convolution", "--out", self.path("p.json")], {"NT_TOLERANCE_SCALE": "-1"}, 2),
        ]
        out = []
        was_tracing, self.tracing = self.tracing, False
        try:
            for name, args, env, code in probes:
                res = self.launch(args, env)
                fixed = res.returncode == code and b"Traceback" not in res.stderr
                out.append({"name": name, "fixed": fixed, "observed": f"exit {res.returncode}, expected {code}"})
            # laplace outside the convergence disk prints Infinity/NaN tokens
            res = self.launch(["laplace", "--signal", "sin10k", "--s-re", "5"])
            try:
                json.loads(res.stdout, parse_constant=_reject_constant)
                fixed, observed = True, f"exit {res.returncode}, strict JSON"
            except ValueError as exc:
                fixed, observed = res.returncode != 0, f"exit {res.returncode}, {exc}"
            out.append({"name": "laplace-nonstrict-json", "fixed": fixed, "observed": observed})
        finally:
            self.tracing = was_tracing
        return out


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _write_csv(path, a, values):
    lines = ["k,value"] + [f"{a + m!r},{float(v)!r}" for m, v in enumerate(values)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _opt(name, value):
    """``--name=value``: argparse takes a separate "-5e-05" for an option, not a value."""
    return f"--{name}={value!r}"


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _ref_signal_csv(cli, name, sig, **kw):
    path = cli.path(f"{name}.ref.csv")
    signals.write_signal_csv(path, sig, **kw)
    return [_file_bytes(path)]


def _history(kind, order):
    if kind in ("rl", "caputo"):
        return math.ceil(order)
    return int(order) if kind == "nabla" else 0


def _preset_names(rng, N):
    sig = [
        "sin10k",
        f"poly:{rng.uniform(-2, 2):.3f},{rng.uniform(-0.01, 0.01):.5f}",
        f"geom:{1.0 + rng.uniform(-2.0, 2.0) / N:.6f}",
    ][int(rng.integers(3))]
    weight = ["one", "case3", "case4", f"exp:{rng.uniform(-4.0, 4.0) / N:.6f}"][int(rng.integers(4))]
    return sig, weight


def _eval_spec(cli, k, kind, rng, csv_signal):
    order = kind_order(rng, kind)
    N = int(rng.integers(300, 2001))
    a = round(float(rng.uniform(-4.0, 4.0)), 3)
    sig, weight = _preset_names(rng, N)
    h = _history(kind, order)
    name = f"eval-{kind}-{'csv' if csv_signal else 'preset'}"
    out = cli.path(f"spec{k}.csv")
    if csv_signal:
        sig = cli.path(f"spec{k}.in.csv")
        _write_csv(sig, a - h, rng.standard_normal(N + h + 1))
    argv = ["eval", "--kind", kind, _opt("order", order), "--signal", sig, "--weight", weight, _opt("a", a), "--N", str(N), "--out", out]

    def ref():
        if csv_signal:
            x = signals.read_signal_csv(sig, history=h)
        else:
            x = presets.preset_signal(sig, Grid(a, history=h, horizon=N))
        w = presets.preset_weight(weight, x.grid)
        spec = operators.OperatorSpec(CLI_KINDS[kind], order, w)
        return _ref_signal_csv(cli, f"spec{k}", operators.apply_operator(x, spec))

    return {"name": name, "argv": argv, "files": [out], "code": 0, "ref": ref}


def _taylor_spec(cli, k, rng):
    kind = ("rl", "caputo")[int(rng.integers(2))]
    order = fractional_order(rng, 0.05, 1.95)
    n = math.ceil(order)
    N = int(rng.integers(8, 17))
    rep = ("current", "future")[int(rng.integers(2))]
    degree = int(rng.integers(n, 5))
    h = degree + 1 if rep == "future" else n
    sig = ("sin10k", f"geom:{rng.uniform(0.8, 1.1):.4f}")[int(rng.integers(2))]
    weight = ("one", "case3", "case4")[int(rng.integers(3))]
    out = cli.path(f"spec{k}.csv")
    argv = ["taylor", "--kind", kind, _opt("order", order), "--signal", sig, "--weight", weight, "--N", str(N), "--rep", rep, "--degree", str(degree), "--history", str(h), "--out", out]

    def ref():
        x = presets.preset_signal(sig, Grid(0.0, history=h, horizon=N))
        spec = operators.OperatorSpec(CLI_KINDS[kind], order, presets.preset_weight(weight, x.grid))
        if rep == "current":
            y = taylor.tempered_op_taylor_current(x, spec)
        else:
            y = taylor.tempered_op_taylor_future(x, spec, degree)
        return _ref_signal_csv(cli, f"spec{k}", y)

    return {"name": f"taylor-{rep}", "argv": argv, "files": [out], "code": 0, "ref": ref}


def _solve_spec(cli, k, rng):
    alpha, mu = float(rng.uniform(0.3, 0.9)), float(rng.uniform(-0.5, 0.5))
    x0, N = float(rng.uniform(0.5, 2.0)), int(rng.integers(100, 401))
    weight = ("one", "case4", "case3")[int(rng.integers(3))]
    out = cli.path(f"spec{k}.csv")
    argv = ["solve", _opt("alpha", alpha), _opt("mu", mu), "--weight", weight, _opt("x0", x0), "--N", str(N), "--out", out]

    def ref():
        w = presets.preset_weight(weight, Grid(0.0, history=0, horizon=N))
        x = laplace.fde_solve(alpha, mu, w, x0, N)
        return _ref_signal_csv(cli, f"spec{k}", x, include_history=True)

    return {"name": "solve", "argv": argv, "files": [out], "code": 0, "ref": ref}


def _laplace_spec(cli, k, rng, rule):
    N = 2000
    # the stored weight (1-lambda)^(k-a) must stay within 1e+-300 up to N
    lam = float(rng.uniform(-0.2, 0.2))
    radius = float(rng.uniform(0.2, 0.45)) * (min(1.0, abs(1.0 - lam)) if rule else 1.0)
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    s = complex(1.0 + radius * math.cos(theta), radius * math.sin(theta))
    order = fractional_order(rng, -1.45, 1.45)
    sig = ("sin10k", "geom:0.9")[int(rng.integers(2))]
    argv = ["laplace", "--signal", sig, "--N", str(N), _opt("s-re", s.real), _opt("s-im", s.imag)]
    if rule:
        argv += ["--rule", "gl", _opt("lambda", lam), _opt("order", order)]

    def ref():
        h = max(math.ceil(order), 0) if rule else 0
        x = presets.preset_signal(sig, Grid(0.0, history=h, horizon=N))
        if rule:
            payload = laplace.check_transform_rule_gl(x, order, lam, s).to_dict()
        else:
            ev = laplace.nlt(x, s)
            payload = {
                "s": [ev.s.real, ev.s.imag],
                "value": [ev.value.real, ev.value.imag],
                "terms_used": ev.terms_used,
                "last_term_mag": ev.last_term_mag,
                "converged": ev.converged,
            }
        return [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()]

    return {"name": "laplace-rule" if rule else "laplace-value", "argv": argv, "files": [], "code": 0, "ref": ref}


REPRO_CASES = ("case1", "case2", "case3", "case4")
REPRO_ALPHAS = ((0.5, "alphap0_5"), (-0.5, "alpham0_5"))


def _repro_spec(cli, k, rng, target):
    outdir = cli.path(f"spec{k}")
    if target == "fig2":
        names = [f"fig2_{c}_{label}.csv" for c in REPRO_CASES for _, label in REPRO_ALPHAS]
    elif target == "fig4":
        names = [f"fig4_{c}_{op}.csv" for c in REPRO_CASES for op in ("gl", "rl", "caputo")]
    else:
        names = ["error_table.csv"]
    files = [os.path.join(outdir, n) for n in names]

    def ref():
        refdir = cli.path(f"spec{k}.ref")
        os.makedirs(refdir, exist_ok=True)
        x0 = presets.preset_signal("sin10k", Grid(0.0, history=0, horizon=100))
        x1 = presets.preset_signal("sin10k", Grid(0.0, history=1, horizon=100))
        out = {}
        for case in REPRO_CASES:
            if target == "fig2":
                for alpha, label in REPRO_ALPHAS:
                    out[f"fig2_{case}_{label}.csv"] = operators.gl_tempered(x0, alpha, presets.preset_weight(case, x0.grid))
            elif target == "fig4":
                w = presets.preset_weight(case, x1.grid)
                out[f"fig4_{case}_gl.csv"] = operators.gl_tempered(x1, 0.5, w)
                out[f"fig4_{case}_rl.csv"] = operators.rl_tempered(x1, 0.5, w)
                out[f"fig4_{case}_caputo.csv"] = operators.caputo_tempered(x1, 0.5, w)
        if target == "error-table":
            lines = ["case,min_gl_minus_rl,max_gl_minus_rl"]
            for case in REPRO_CASES:
                w = presets.preset_weight(case, x1.grid)
                diff = operators.gl_tempered(x1, 0.5, w).body - operators.rl_tempered(x1, 0.5, w).body
                lines.append(f"{case},{float(np.min(diff))!r},{float(np.max(diff))!r}")
            return [("\n".join(lines) + "\n").encode()]
        for n, sig in out.items():
            signals.write_signal_csv(os.path.join(refdir, n), sig)
        return [_file_bytes(os.path.join(refdir, n)) for n in names]

    return {"name": f"repro-{target}", "argv": ["repro", target, "--outdir", outdir], "files": files, "code": 0, "ref": ref}


#: Small suite groups: `nt verify --only <group>` stays a sub-second process.
CLI_VERIFY_GROUPS = (
    "integer-defect",
    "order-limit",
    "uniform-convergence",
    "leibniz",
    "rl-caputo-decay",
    "convolution",
    "mixed-composition",
    "gl-rl-agree",
)


def _verify_spec(cli, k, rng):
    group = CLI_VERIFY_GROUPS[int(rng.integers(len(CLI_VERIFY_GROUPS)))]
    seed = int(rng.integers(VERIFY_SEEDS))  # the seeds the verify workload runs, all passing today
    out = cli.path(f"spec{k}.json")

    def ref():
        reports = suite.run_suite(seed=seed, only=group, tolerance_scale=1.0)
        payload = suite.reports_to_json_dict(reports, seed, 1.0, None)
        return [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()]

    argv = ["verify", "--only", group, "--seed", str(seed), "--out", out]
    return {"name": f"verify-{group}", "argv": argv, "files": [out], "code": 0, "ref": ref}


def _error_spec(cli, k, rng, which):
    out = cli.path(f"spec{k}.csv")
    if which == "unknown-signal":
        argv, code = ["eval", "--kind", "gl", "--order", "0.5", "--signal", "nosuch", "--out", out], 2
    elif which == "case2-horizon-cap":
        # pi^(k-a) overflows past N ~ 620: a numeric error, exit 3
        N = int(rng.integers(700, 1500))
        argv, code = ["eval", "--kind", "gl", "--order", "0.5", "--signal", "sin10k", "--weight", "case2", "--N", str(N), "--out", out], 3
    else:
        argv, code = ["solve", "--alpha", "0.5", "--mu", "1.0", "--x0", "1", "--N", "50", "--out", out], 3
    return {"name": f"error-{which}", "argv": argv, "files": [], "code": code, "ref": None}


CLI_COMMANDS = ("eval", "taylor", "verify", "solve", "laplace", "repro")
CLI_KINDS = {
    "gl": operators.OperatorKind.GL,
    "rl": operators.OperatorKind.RL,
    "caputo": operators.OperatorKind.CAPUTO,
    "nabla": operators.OperatorKind.INTEGER_NABLA,
}

#: Fixed recipe order; the seed draws only each recipe's parameters.
CLI_RECIPES = (
    lambda rng, cli, k: _eval_spec(cli, k, "gl", rng, csv_signal=False),
    lambda rng, cli, k: _verify_spec(cli, k, rng),
    lambda rng, cli, k: _eval_spec(cli, k, "caputo", rng, csv_signal=True),
    lambda rng, cli, k: _solve_spec(cli, k, rng),
    lambda rng, cli, k: _repro_spec(cli, k, rng, "fig2"),
    lambda rng, cli, k: _laplace_spec(cli, k, rng, rule=False),
    lambda rng, cli, k: _error_spec(cli, k, rng, "unknown-signal"),
    lambda rng, cli, k: _eval_spec(cli, k, "rl", rng, csv_signal=False),
    lambda rng, cli, k: _taylor_spec(cli, k, rng),
    lambda rng, cli, k: _eval_spec(cli, k, "nabla", rng, csv_signal=True),
    lambda rng, cli, k: _repro_spec(cli, k, rng, "fig4"),
    lambda rng, cli, k: _laplace_spec(cli, k, rng, rule=True),
    lambda rng, cli, k: _error_spec(cli, k, rng, "case2-horizon-cap"),
    lambda rng, cli, k: _eval_spec(cli, k, "gl", rng, csv_signal=True),
    lambda rng, cli, k: _repro_spec(cli, k, rng, "error-table"),
    lambda rng, cli, k: _verify_spec(cli, k, rng),
    lambda rng, cli, k: _error_spec(cli, k, rng, "singular-step"),
)

WORKLOADS = {w.name: w for w in (Verify, Horizon, Relaxation, Cli)}
