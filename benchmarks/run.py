"""nablatc benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics of BENCHMARK.json with tracing off; with ``--trace 1``
it runs the workload's fixed op list once untraced and once under the span
recorder, and reports the per-layer metrics.  Every op's output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
(all seven end-to-end figures, environment, failures, known defects) is
written to ``--out``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5
MAX_FAILURES_KEPT = 20


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; children inherit it."""
    ncpu = str(len(os.sched_getaffinity(0)))
    caps = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = caps[var] = ncpu
    return caps


def load_library() -> None:
    """Import nablatc from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nablatc", "__init__.py")):
        sys.exit(f"benchmark: no nablatc sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import nablatc

    if os.path.dirname(os.path.dirname(os.path.abspath(nablatc.__file__))) != src:
        sys.exit(f"benchmark: imported nablatc from {nablatc.__file__}, not from {src}")


def set_up(name: str, seed: int, work: str):
    """Import, input generation and one warm-up op; returns (workload, seconds)."""
    t0 = time.perf_counter()
    load_library()
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {name!r}; use one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](seed, work, ROOT)
    wl.op(0)
    return wl, time.perf_counter() - t0


def setup_probe(args) -> tuple[float, float]:
    """Set-up time measured in a fresh process, so the import is cold, and its speed scale."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["scale"]


def setup_scale(wl) -> float:
    """Speed scale for a set-up that just ended in this process, from the
    median of three gauge passes taken right after it (see speed.py)."""
    import speed  # after set-up, whose import time it would otherwise hide

    gauge = speed.Gauge(wl.gauge)
    t = gauge.sample(reps=3)
    return gauge.scale(t, t)


class Outcome:
    """Attempted/failed counts and the worst deviation ratio over checked ops."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.failures: list[str] = []

    def fail(self, i: int, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(f"op {i}: {detail}")

    def run(self, wl, i: int):
        """Run op i; return (output or None, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # a failed op is counted, the run goes on
            dt = time.perf_counter() - t0
            self.fail(i, f"{type(exc).__name__}: {exc}")
            return None, dt
        return out, time.perf_counter() - t0

    def check(self, wl, i: int, out) -> None:
        if out is None:
            return
        try:
            ok, ratio, detail = wl.check(i, out)
        except Exception:
            ok, ratio, detail = False, float("inf"), traceback.format_exc(limit=3)
        self.worst = max(self.worst, ratio)
        if not ok:
            self.fail(i, detail)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with min(10, n // 10) samples beyond it.

    From 100 samples up that is the highest percentile with ten samples
    beyond it; below, it is p90 by nearest rank, so the figure never drops
    towards the median and does not jump when the sample count changes.
    Returns (value, percentile, samples beyond).
    """
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(10, n // 10)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def peak_rss_mb(wl) -> float:
    # the cli workload's work happens in its children; read before any probe
    # process starts, RUSAGE_CHILDREN gives the largest op child's peak (the
    # process gauge's children only import numpy and stay below any op child)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(wl, args, setup_s: float) -> tuple[Outcome, dict, dict]:
    """Closed loop until the ops' scaled time reaches --seconds; checks run between ops, untimed.

    Every timing is scaled to the nominal host speed (see speed.py): the
    workload's gauge is sampled before the first op, after every
    ``gauge.every_s`` of op time and after the last op, and the ops
    between two samples are scaled by their mean.  The run ends on scaled
    time, so it covers the same ops whether the host is in a fast or a slow
    phase.  Each set-up is scaled by a sample taken right after it in its
    own process.
    """
    import speed

    setups_raw = [setup_s]
    setups = [setup_s * setup_scale(wl)]
    gauge = speed.Gauge(wl.gauge)
    before = gauge.sample()
    res = Outcome()
    raw: list[float] = []
    latencies: list[float] = []
    block: list[float] = []
    busy = 0.0  # scaled time of the ops in completed blocks
    i = 0
    done = False
    while not done:
        out, dt = res.run(wl, i)
        block.append(dt)
        res.check(wl, i, out)
        i += 1
        # raw op time past twice --seconds ends a run on a very slow host
        done = busy + sum(block) * gauge.scale(before, before) >= args.seconds or sum(raw) + sum(block) >= 2 * args.seconds
        if sum(block) >= gauge.every_s or done:
            after = gauge.sample()
            factor = gauge.scale(before, after)
            raw.extend(block)
            latencies.extend(dt * factor for dt in block)
            busy += sum(block) * factor
            block, before = [], after
    rss = peak_rss_mb(wl)
    for _ in range(SETUP_REPS - 1):
        s, factor = setup_probe(args)
        setups_raw.append(s)
        setups.append(s * factor)
    tail_value, tail_pct, beyond = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / busy,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "fail_frac": res.failed / res.attempted,
        "worst_dev_ratio": res.worst,
        "peak_rss_mb": rss,
    }
    detail = {
        "setup_s": {"samples": setups, "raw_samples": setups_raw},
        "ops_per_s": {"ops": len(latencies), "busy_s": busy, "raw_busy_s": sum(raw)},
        "op_p50_s": {"samples": len(latencies), "raw": statistics.median(raw)},
        "op_tail_s": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(latencies), "raw": tail(raw)[0]},
        "fail_frac": {"failed": res.failed, "attempted": res.attempted},
        "gauge": gauge.summary(),
    }
    return res, values, detail


def traced_run(wl) -> tuple[Outcome, dict, dict]:
    """The fixed op list, each op once untraced and once under the span recorder.

    The two runs of an op are back to back, alternating which goes first,
    so drift during the run does not leak into the tracing overhead.
    """
    from tracer import Tracer, merge, summarize

    res = Outcome()
    tracer = Tracer()
    untraced: list[tuple[int, float]] = []
    traced_s = 0.0
    t0 = time.perf_counter()
    for n, i in enumerate(wl.trace_ops()):
        for traced in (n % 2 == 1, n % 2 == 0):
            wl.tracing = traced
            if traced:
                tracer.op = i
                with tracer:
                    out, dt = res.run(wl, i)
                traced_s += dt
            else:
                out, dt = res.run(wl, i)
                untraced.append((i, dt))
            wl.tracing = False
            res.check(wl, i, out)  # checks call the library, so they run untraced
    plain_s = sum(dt for _, dt in untraced)

    dumps = [tracer.to_dict()]
    for path in getattr(wl, "child_dumps", []):
        with open(path) as fh:
            dumps.append(json.load(fh))
    dump = merge(dumps)
    values = layer_metrics(summarize(dump), dump["counts"])
    values.update(wl.trace_extra(untraced))
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    values["checks.worst_dev_ratio"] = res.worst
    values["checks.fail_frac"] = res.failed / res.attempted
    detail = {"untraced_s": plain_s, "traced_s": traced_s, "ops": len(untraced), "wall_s": time.perf_counter() - t0}
    groups = [v for k, v in values.items() if k.startswith("suite.") and k.endswith(".wall_s")]
    if groups and any(groups):
        # the groups split one pass: their traced walls less the tracing
        # overhead should add up to the untraced pass
        detail["suite_groups_minus_overhead_s"] = sum(groups) - (traced_s - plain_s)
    return res, values, {"trace": detail, "spans": dump}


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer values from the span summary and counts; layers not called read 0."""
    import nablatc.suite as suite
    import workloads
    from tracer import TARGETS

    def fn(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0})

    out = {}
    for mod, name in TARGETS:
        out[f"{mod}.{name}.calls"] = fn(f"{mod}.{name}")["calls"]
        out[f"{mod}.{name}.self_s"] = fn(f"{mod}.{name}")["self_s"]
    for key in (
        "special.gl_coefficients.terms",
        "operators.gl_tempered.points",
        "operators.gl_tempered.macs",
        "laplace.nlt.terms_used",
        "laplace.convolve.macs",
        "laplace.fde_solve.macs",
        "signals.read_signal_csv.bytes",
        "signals.write_signal_csv.bytes",
    ):
        out[key] = counts.get(key, 0)
    nlt_calls = out["laplace.nlt.calls"]
    out["laplace.nlt.converged_frac"] = counts.get("laplace.nlt.converged", 0) / nlt_calls if nlt_calls else 0.0
    checkers = [v for k, v in summary.items() if k.startswith("identities.")]
    out["identities.checks"] = sum(v["calls"] for v in checkers)
    out["identities.self_s"] = sum(v["self_s"] for v in checkers)
    for group, _ in suite.GROUPS:
        for metric in ("wall_s", "checks", "worst_dev_ratio"):
            out[f"suite.{group}.{metric}"] = 0
    for cmd in workloads.CLI_COMMANDS:
        out[f"cli.{cmd}.wall_s"] = 0.0
    out["cli.startup_s"] = 0.0
    return out


def environment(caps: dict) -> dict:
    import platform

    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the layout of numpy's build info varies by version
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "caches": cpu_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": caps,
        "git": git_hash(),
    }


def cpu_caches() -> dict[str, str]:
    """Cache sizes of CPU 0 by level and type, e.g. {"L2 Unified": "2048K"}."""
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        fields = []
        for name in ("level", "type", "size"):
            try:
                with open(os.path.join(d, name)) as fh:
                    fields.append(fh.read().strip())
            except OSError:
                break
        else:
            out[f"L{fields[0]} {fields[1]}"] = fields[2]
    return out


def git_hash() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def finite(value: float) -> float:
    """JSON has no infinity: an unbounded deviation ratio reads as the largest double."""
    return value if math.isfinite(value) else math.copysign(sys.float_info.max, value)


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def print_report(record: dict, listed: list[dict]) -> None:
    print(f"nablatc benchmark: workload {record['workload']}, seed {record['seed']}, trace {record['trace']}")
    detail = record.get("detail", {})
    for m in listed:
        value = record["all_metrics"][m["name"]]
        note = detail.get(m["name"], "")
        print(f"  {m['name']:<44} {value:<14.6g} {m['unit']:<6} {json.dumps(note) if note else ''}")
    print(f"  correct: {'yes' if record['correct'] else 'NO'} ({record['failed']} of {record['attempted']} ops failed)")
    for f in record["failures"]:
        print(f"    failure: {f}")
    for d in record["known_defects"]:
        print(f"  known defect {d['name']}: {'fixed' if d['fixed'] else 'still fails'} ({d['observed']})")
    if record["trace"]:
        print(f"  trace: {json.dumps(detail)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_results"), help="directory for the full record")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    spec = bench_spec()
    caps = cap_threads()
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        wl, setup_s = set_up(args.workload, args.seed, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "scale": setup_scale(wl)}))
            return 0
        if args.trace:
            res, values, extra = traced_run(wl)
            listed = spec["per_layer"]
            detail = extra["trace"]
        else:
            res, values, detail = timed_run(wl, args, setup_s)
            extra = {}
            listed = spec["end_to_end"]
        defects = wl.known_defects()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left only when no other run is active
            os.rmdir(os.path.dirname(work))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m["name"]: {"value": finite(values[m["name"]]), "unit": m["unit"]} for m in listed},
        "all_metrics": {k: finite(v) for k, v in values.items()},
        "detail": detail,
        "failures": res.failures,
        "known_defects": defects,
        "env": environment(caps),
    }
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if "spans" in extra:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(extra["spans"], fh, separators=(",", ":"))

    if not args.trace:
        listed = listed + [
            {"name": "fail_frac", "unit": "1"},
            {"name": "worst_dev_ratio", "unit": "1"},
        ]
    print_report(record, listed)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
