"""Command-line front-end.

Subcommands: ``eval`` (apply an operator to a signal, write CSV),
``verify`` (run the identity suite, write a JSON report), ``taylor``
(evaluate an operator through one of its series representations),
``laplace`` (transform evaluation and transform-rule checks), ``solve``
(the tempered relaxation-equation solver), and ``repro`` (emit the
reference experiment datasets).

Exit codes: 0 success (and, for ``verify``, every identity passed),
1 verification failures, 2 configuration errors (bad options, an
NT_TOLERANCE_SCALE that is not finite or below about 2.23e-297, where the
smallest tolerance is no longer a normal float, unreadable inputs,
unwritable outputs, grids too large to allocate), 3 numeric errors.
``--out`` names a file, whose directory must exist; ``--outdir`` names a
directory that the command makes with its parents, like ``mkdir -p``.
Output files are written atomically; identical configurations and seeds
produce byte-identical outputs.

``verify`` runs its groups in this process and, on Linux with more than
one CPU and more than one group selected, in forked children (see
``suite.run_suite``): the report is the same bytes either way, and each
group's stderr line gives its wall time inside the process that ran it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .errors import ConfigError, NablaError
from .laplace import fde_solve, nlt, transform_rule_reports
from .operators import (
    OperatorKind,
    OperatorSpec,
    _stage,
    apply_operator,
    caputo_tempered,
    gl_tempered,
    rl_tempered,
)
from .presets import preset_signal, preset_weight
from .signals import (
    Grid,
    Signal,
    Weight,
    _atomic_write_text,
    _nonunit_step,
    read_signal_csv,
    read_weight_csv,
    write_signal_csv,
)
from .suite import _run_groups, reports_to_json_dict, resolve_tolerance_scale, select_groups
from .taylor import (
    tempered_op_taylor_current,
    tempered_op_taylor_future,
    tempered_op_taylor_initial,
)

KINDS = {kind.value: kind for kind in OperatorKind}
#: ``laplace --rule`` name -> the operator kind whose order rule applies
RULE_KINDS = {**KINDS, "int": OperatorKind.INTEGER_NABLA}

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _lattice(args: argparse.Namespace, history: int) -> Grid:
    """The grid of ``--a`` and ``--N``, held to unit steps like a CSV file:
    past 2**22 in magnitude, ``a + m`` may round off the lattice."""
    grid = Grid(a=args.a, history=history, horizon=args.N)
    k = grid.k_values()
    bad = _nonunit_step(k)
    if bad is not None:
        raise ConfigError(
            f"--a {args.a!r} gives a non-unit step between k={k[bad]} and "
            f"k={k[bad + 1]}: binary64 does not resolve this lattice"
        )
    return grid


def _load_signal(args: argparse.Namespace, history: int) -> Signal:
    if os.path.exists(args.signal) or args.signal.endswith(".csv"):
        return read_signal_csv(args.signal, history=history)
    return preset_signal(args.signal, _lattice(args, history))


def _load_weight(args: argparse.Namespace, grid: Grid) -> Weight:
    if os.path.exists(args.weight) or args.weight.endswith(".csv"):
        w = read_weight_csv(args.weight, history=grid.history)
        if not w.grid.covers(grid):
            raise ConfigError(
                f"weight file {args.weight} does not cover the signal grid"
            )
        return w
    return preset_weight(args.weight, grid)


def _history(args: argparse.Namespace, kind: OperatorKind) -> int:
    """``--history``, checked ``--order`` first; without it, what ``kind``
    reads below the base: the integer stage ceil(order), none for the
    single-sum form."""
    n = _stage(kind, args.order, None, None)
    return n if args.history is None else args.history


def _load_spec(args: argparse.Namespace) -> tuple[Signal, OperatorSpec]:
    """The signal and operator of ``eval`` and ``taylor``."""
    kind = KINDS[args.kind]
    x = _load_signal(args, _history(args, kind))
    return x, OperatorSpec(kind, args.order, _load_weight(args, x.grid))


def cmd_eval(args: argparse.Namespace) -> int:
    x, spec = _load_spec(args)
    write_signal_csv(args.out, apply_operator(x, spec))
    return EXIT_OK


def cmd_taylor(args: argparse.Namespace) -> int:
    if args.history is None and args.rep != "current":
        # these forms also read the degree + 1 points below the base
        args.history = max(_history(args, KINDS[args.kind]), args.degree + 1)
    x, spec = _load_spec(args)
    if args.rep == "current":
        y = tempered_op_taylor_current(x, spec)
    elif args.rep == "initial":
        y = tempered_op_taylor_initial(x, spec, args.degree)
    else:
        y = tempered_op_taylor_future(x, spec, args.degree)
    write_signal_csv(args.out, y)
    return EXIT_OK


def _group_line(name: str, reports: list, seconds: float) -> str:
    """One stderr line per suite group: its checks, wall time and worst
    ``max_abs_dev / tolerance``.  A check of tolerance 0 is bit-exact: it
    counts as ``exact`` when it holds, and as an infinite ratio when not."""
    ratios = []
    exact = 0
    for r in reports:
        if r.tolerance > 0:
            ratios.append(r.max_abs_dev / r.tolerance)
        elif r.passed:
            exact += 1
        else:
            ratios.append(math.inf)
    # a NaN deviation (a failed check) ranks above every number
    worst = f"{max(ratios, key=lambda v: (math.isnan(v), v)):.3g}" if ratios else "exact"
    if exact and ratios:
        worst += f" ({exact} exact)"
    return (
        f"verify: {name}: {len(reports)} checks, {seconds * 1e3:.1f} ms, "
        f"worst dev/tol {worst}"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    scale = resolve_tolerance_scale()
    selected = select_groups(args.only)
    if not selected:
        raise ConfigError(f"--only {args.only!r} matched no identity group")
    reports = []
    lines = []
    for name, group, seconds in _run_groups(selected, args.seed, args.perturb, scale):
        lines.append(_group_line(name, group, seconds))
        reports += group
    payload = reports_to_json_dict(reports, args.seed, scale, args.perturb)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _atomic_write_text(args.out, text + "\n")
    else:
        print(text)
    failures = payload["failures"]
    for line in lines:
        print(line, file=sys.stderr)
    print(
        f"verify: {payload['total']} checks, {failures} failures (seed {args.seed})",
        file=sys.stderr,
    )
    return EXIT_OK if payload["all_pass"] else EXIT_SUITE_FAILED


def cmd_solve(args: argparse.Namespace) -> int:
    if not (0.0 < args.alpha < 1.0):
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    w = _load_weight(args, _lattice(args, 0))
    x = fde_solve(args.alpha, args.mu, w, args.x0, args.N)
    write_signal_csv(args.out, x, include_history=True)
    return EXIT_OK


def cmd_laplace(args: argparse.Namespace) -> int:
    s = complex(args.s_re, args.s_im)
    rule = args.rule
    if rule is None:
        if args.lam is not None or args.order is not None:
            raise ConfigError("--lambda and --order need --rule")
        history = args.history or 0
    elif args.lam is None:
        raise ConfigError("--rule needs --lambda")
    else:
        if args.order is None:
            args.order = 0.5
        history = _history(args, RULE_KINDS[rule])
    x = _load_signal(args, history)
    if rule is None:
        ev = nlt(x, s)
        payload = {
            "s": [ev.s.real, ev.s.imag],
            "value": [ev.value.real, ev.value.imag],
            "terms_used": ev.terms_used,
            "last_term_mag": ev.last_term_mag,
            "converged": ev.converged,
        }
    else:
        lam = args.lam or 0.0  # a --lambda of -0 reports as 0.0
        payload = transform_rule_reports(x, rule, args.order, lam, (s,))[0].to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


# ---------------------------------------------------------------------------
# reference experiment datasets
# ---------------------------------------------------------------------------

REPRO_A = 0.0
REPRO_N = 100
REPRO_ALPHAS = (0.5, -0.5)
REPRO_CASES = ("case1", "case2", "case3", "case4")


def _repro_signal(history: int) -> Signal:
    grid = Grid(a=REPRO_A, history=history, horizon=REPRO_N)
    return preset_signal("sin10k", grid)


def _alpha_label(alpha: float) -> str:
    return f"alpha{alpha:+.1f}".replace("+", "p").replace("-", "m").replace(".", "_")


def cmd_repro(args: argparse.Namespace) -> int:
    target, outdir = args.target, args.outdir
    os.makedirs(outdir, exist_ok=True)
    x0 = _repro_signal(0)
    x1 = _repro_signal(1)

    def emit(name: str, sig: Signal) -> None:
        write_signal_csv(os.path.join(outdir, name), sig)

    if target in ("fig1", "fig2"):
        if target == "fig1":
            stems = (("halfgeom", "fig1_vanishing"), ("halfgeom+eps", "fig1_shifted"))
        else:
            stems = tuple((case, f"fig2_{case}") for case in REPRO_CASES)
        for wname, stem in stems:
            w = preset_weight(wname, x0.grid)
            for alpha in REPRO_ALPHAS:
                emit(f"{stem}_{_alpha_label(alpha)}.csv", gl_tempered(x0, alpha, w))
    elif target == "fig3":
        for alpha in REPRO_ALPHAS:
            base = gl_tempered(x0, alpha, preset_weight("case1", x0.grid)).body
            for case in REPRO_CASES:
                y = gl_tempered(x0, alpha, preset_weight(case, x0.grid))
                delta = Signal(y.grid, np.concatenate([[0.0], y.body - base]))
                emit(f"fig3_{case}_minus_case1_{_alpha_label(alpha)}.csv", delta)
    elif target == "fig4":
        for case in REPRO_CASES:
            w = preset_weight(case, x1.grid)
            emit(f"fig4_{case}_gl.csv", gl_tempered(x1, 0.5, w))
            emit(f"fig4_{case}_rl.csv", rl_tempered(x1, 0.5, w))
            emit(f"fig4_{case}_caputo.csv", caputo_tempered(x1, 0.5, w))
    elif target == "error-table":
        lines = ["case,min_gl_minus_rl,max_gl_minus_rl"]
        for case in REPRO_CASES:
            w = preset_weight(case, x1.grid)
            diff = gl_tempered(x1, 0.5, w).body - rl_tempered(x1, 0.5, w).body
            lines.append(f"{case},{float(np.min(diff))!r},{float(np.max(diff))!r}")
        _atomic_write_text(os.path.join(outdir, "error_table.csv"), "\n".join(lines) + "\n")
    else:
        raise ConfigError(f"unknown repro target {target!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_at_least(low: int, what: str):
    """An argparse type: an integer >= ``low``, else "must be ``what``"."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return parse


#: argparse types: an integer >= 0 (seeds, history lengths), >= 1 (horizons)
nonneg_int = _int_at_least(0, "a non-negative integer")
positive_int = _int_at_least(1, "a positive integer")


def finite(text: str) -> float:
    """argparse type: a finite float (no NaN or infinity)."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reports a bad option as one stderr line with exit code 2, like
    every other configuration error, and reads a negative number with an
    exponent (``--mu -1e-3``), or a spelled ``-inf``, ``-infinity`` or
    ``-nan`` in any case, as a value: argparse's own pattern takes it for an
    option.  Subparsers are built as this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
        )

    def error(self, message: str):
        self.exit(EXIT_CONFIG, f"nt: configuration error: {message}\n")


def _add_grid_args(p: argparse.ArgumentParser, default_n: int = 100) -> None:
    p.add_argument("--signal", required=True, help="built-in name or CSV path")
    p.add_argument("--a", type=finite, default=0.0, help="base point")
    p.add_argument("--N", type=positive_int, default=default_n, help="horizon length")
    p.add_argument(
        "--history",
        type=nonneg_int,
        default=None,
        help="stored points below the base (default: what the operator needs)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nt", description="nabla tempered fractional calculus toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="apply an operator to a signal, write CSV")
    p.add_argument("--kind", choices=sorted(KINDS), required=True)
    p.add_argument("--order", type=float, required=True)
    _add_grid_args(p)
    p.add_argument("--weight", default="one", help="built-in name or CSV path")
    p.add_argument("--out", required=True)

    p = sub.add_parser("taylor", help="evaluate an operator via a series representation")
    p.add_argument("--kind", choices=sorted(KINDS), required=True)
    p.add_argument("--order", type=float, required=True)
    _add_grid_args(p, default_n=16)
    p.add_argument("--weight", default="one", help="built-in name or CSV path")
    p.add_argument("--rep", choices=("initial", "current", "future"), default="current")
    p.add_argument("--degree", type=nonneg_int, default=5, help="expansion degree K")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the identity suite, write a JSON report")
    p.add_argument("--seed", type=nonneg_int, default=0)
    p.add_argument("--only", default=None, help="run only matching identity groups")
    p.add_argument(
        "--perturb",
        type=finite,
        default=None,
        help="inject an additive fault into the single-sum operator",
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve", help="step the tempered relaxation equation")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mu", type=finite, required=True)
    p.add_argument("--weight", default="one")
    p.add_argument("--x0", type=finite, required=True)
    p.add_argument("--a", type=finite, default=0.0)
    p.add_argument("--N", type=positive_int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("laplace", help="transform evaluation / rule checks")
    _add_grid_args(p, default_n=2000)
    p.add_argument("--s-re", type=finite, required=True)
    p.add_argument("--s-im", type=finite, default=0.0)
    p.add_argument("--rule", choices=("gl", "rl", "caputo", "int"), default=None)
    p.add_argument("--lambda", dest="lam", type=finite, default=None)
    p.add_argument("--order", type=float, default=None)  # 0.5 under --rule

    p = sub.add_parser("repro", help="emit the reference experiment datasets")
    p.add_argument("target", choices=("fig1", "fig2", "fig3", "fig4", "error-table"))
    p.add_argument("--outdir", required=True)

    return parser


COMMANDS = {
    "eval": cmd_eval,
    "taylor": cmd_taylor,
    "verify": cmd_verify,
    "solve": cmd_solve,
    "laplace": cmd_laplace,
    "repro": cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, OSError, MemoryError) as exc:
        # an unreadable input, an unwritable output path or a grid too large
        # to allocate (a bare MemoryError has no message) is configuration too
        print(f"nt: configuration error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except NablaError as exc:
        print(f"nt: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
