import importlib
import json
import os
import pkgutil
import re
import threading
import time
import warnings

import pytest

import nablatc
from nablatc import laplace, operators, suite
from nablatc.errors import ConfigError
from nablatc.identities import IdentityReport
from nablatc.laplace import nlt
from nablatc.suite import CORE_GROUPS, GROUPS, _tag, reports_to_json_dict, run_suite


def test_group_registry_covers_core():
    assert all(len(entry) == 2 for entry in GROUPS)
    names = [name for name, _ in GROUPS]
    assert CORE_GROUPS == tuple(names[:8])
    # the shape of a pass at seed 0, which no platform bit can move
    reports = run_suite(seed=0)
    by_group = {name: [r for r in reports if r.params["group"] == name] for name in names}
    counts = [len(group) for group in by_group.values()]
    assert counts == [100, 100, 100, 100, 200, 100, 200, 100, 36, 3, 32, 60, 8, 39, 28, 18]
    assert len(reports) == 1224
    for name in CORE_GROUPS:
        # each drawer tags its own rows 0..99, in order
        tags = [r.params["instance"] for r in by_group[name]]
        assert tags == list(range(100)) * (len(tags) // 100)
    ids = {name: [r.identity_id for r in by_group[name]] for name in CORE_GROUPS}
    assert ids["sum-of-diff"] == ["sum-of-diff-rl"] * 100 + ["sum-of-diff-caputo"] * 100
    assert ids["taylor-remainder"] == (
        ["taylor-remainder-base"] * 100 + ["taylor-remainder-shifted"] * 100
    )


def test_unknown_group_name_is_a_config_error():
    # a dropped name would run nothing, and report no failures
    with pytest.raises(ConfigError, match="unknown suite groups: diff-of-sun$"):
        run_suite(groups=("diff-of-sum", "diff-of-sun"))


@pytest.mark.parametrize("groups", [(0,), "leibniz", ("leibniz", None)])
def test_bad_groups_value_is_a_config_error(groups):
    with pytest.raises(ConfigError, match=re.escape(f"sequence of group names, got {groups!r}")):
        run_suite(groups=groups)


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(nablatc.__path__)])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"nablatc.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_suite_deterministic():
    a = run_suite(seed=123, groups=("integer-defect",))
    b = run_suite(seed=123, groups=("integer-defect",))
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_suite_seed_changes_instances():
    a = run_suite(seed=1, groups=("gl-rl-agree",))
    b = run_suite(seed=2, groups=("gl-rl-agree",))
    assert [r.max_abs_dev for r in a] != [r.max_abs_dev for r in b]


@pytest.fixture(scope="module")
def full_pass_seed5():
    return [r.to_dict() for r in run_suite(seed=5)]


@pytest.mark.parametrize("name", [name for name, _ in GROUPS])
def test_filter_is_independent_of_other_groups(full_pass_seed5, name):
    # what lets one pass spread its groups over processes: a group run
    # alone gives its slice of the full pass
    only = run_suite(seed=5, only=name)
    full_sub = [d for d in full_pass_seed5 if d["params"]["group"] == name]
    assert full_sub and [r.to_dict() for r in only] == full_sub


def test_json_shape():
    reports = run_suite(seed=9, groups=("uniform-convergence",))
    payload = reports_to_json_dict(reports, 9, 1.0, None)
    assert payload["total"] == len(reports)
    assert payload["all_pass"] == all(r.passed for r in reports)
    for entry in payload["reports"]:
        assert set(entry) == {
            "identity-id",
            "params",
            "max_abs_dev",
            "argmax_k",
            "tolerance",
            "pass",
            "seed",
        }


def test_perturbation_breaks_core_groups():
    reports = run_suite(seed=0, groups=("diff-of-sum",), perturb=1e-6)
    assert all(not r.passed for r in reports)
    clean = run_suite(seed=0, groups=("diff-of-sum",))
    assert all(r.passed for r in clean)


def test_tolerance_scale_spares_the_self_bounded_groups(full_pass_seed5):
    # uniform-convergence's envelope bound carries its own rounding
    # allowance, and rl-caputo-decay compares ratios against 1
    scaled = [r.to_dict() for r in run_suite(seed=5, tolerance_scale=1e-3)]
    kept = []
    for d, s in zip(full_pass_seed5, scaled, strict=True):
        if s["tolerance"] == d["tolerance"] != 0.0:
            kept.append(d["params"]["group"])
        else:
            assert s["tolerance"] == pytest.approx(1e-3 * d["tolerance"], rel=1e-15)
    assert kept == ["uniform-convergence"] * 3 + ["rl-caputo-decay"] * 8


def test_tolerance_scale_argument():
    strict = run_suite(seed=0, groups=("gl-rl-agree",), tolerance_scale=1e-12)
    assert any(not r.passed for r in strict)


def test_tag_labels_the_report_in_place():
    report = IdentityReport("x", 0.0, 1.0, 1.0, {"alpha": 0.5, "instance": 0})
    assert _tag(report, instance=3, n=2) is report
    # a new key goes last, an existing one keeps its place
    assert list(report.params.items()) == [("alpha", 0.5), ("instance", 3), ("n", 2)]
    # which is safe because a pass gives every report a params dict of its own
    reports = run_suite(seed=0)
    assert len({id(r.params) for r in reports}) == len(reports)


@pytest.mark.parametrize("seed", [0, 7])
def test_in_process_rerun_is_byte_identical(seed):
    # a cached array mutated by the first pass would change the second
    first, second = (
        json.dumps(reports_to_json_dict(run_suite(seed=seed), seed, 1.0, None), sort_keys=True)
        for _ in range(2)
    )
    assert first == second


def _laplace_rules_at(monkeypatch, horizon):
    """laplace-rules' reports with its signal on ``horizon`` points, as
    ``to_dict()`` JSON, and the transforms its ``nlt`` calls returned, each
    with the horizon of the signal it read."""
    seen = []

    def recorded(x, s):
        ev = nlt(x, s)
        seen.append((ev, x.grid.horizon))
        return ev

    monkeypatch.setattr(suite, "_LAPLACE_RULES_HORIZON", horizon)
    monkeypatch.setattr(laplace, "nlt", recorded)
    entry = suite.select_groups(groups=("laplace-rules",))[0]
    reports, _ = suite._run_group(0, entry, 1.0)
    return json.dumps([r.to_dict() for r in reports]), seen


def test_laplace_rules_horizon_changes_no_report(monkeypatch):
    # the group's horizon is a cost, not an input: its reports are those of
    # N = 3000, and every transform it takes stops by its own criterion
    # within a quarter of the horizon it reads
    horizon = suite._LAPLACE_RULES_HORIZON
    assert horizon < operators._SPLIT_FROM
    short, seen = _laplace_rules_at(monkeypatch, horizon)
    long, _ = _laplace_rules_at(monkeypatch, 3000)
    assert short == long
    assert seen
    for ev, n in seen:
        assert ev.converged and 4 * ev.terms_used <= n, (ev, n)


def test_no_suite_pass_reaches_the_thread_split(monkeypatch):
    # in-process: a recorder in a forked child is invisible here.  The
    # drawn horizons are capped (at 64), so one seed covers every seed
    sizes = []
    tile_ranges = operators._tile_ranges

    def recorded(N):
        sizes.append(N)
        return tile_ranges(N)

    monkeypatch.setattr(operators, "_tile_ranges", recorded)
    for entry in suite.select_groups():
        suite._run_group(0, entry, 1.0)
    if not (operators._EINSUM_FUSES and operators._STACKED_EINSUM_FUSES):
        assert sizes  # some tiled sum ran, so the recorder saw the pass
    assert max(sizes, default=0) < operators._SPLIT_FROM


# ---------------------------------------------------------------------------
# one pass over forked processes
# ---------------------------------------------------------------------------

SMALL = ("uniform-convergence", "rl-caputo-decay", "convolution")


def _json(reports, seed=0, scale=1.0, perturb=None):
    return json.dumps(reports_to_json_dict(reports, seed, scale, perturb), sort_keys=True)


def _group_by_group(seed, groups=None, perturb=None, scale=1.0):
    """A pass as single-group runs, each of which runs in this process."""
    names = groups or [name for name, _ in GROUPS]
    reports = []
    for name in names:
        reports += run_suite(seed=seed, groups=(name,), perturb=perturb, tolerance_scale=scale)
    return _json(reports, seed, scale, perturb)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs whatever the host has, and a count of the forks made."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.mark.parametrize(
    "seed, perturb, scale",
    [(0, None, 1.0), (3, None, 1.0), (11, None, 1.0), (7, 1e-6, 1.0), (4, None, 0.37)],
)
def test_forked_pass_is_byte_equal_to_in_process(forks, seed, perturb, scale):
    forked = run_suite(seed=seed, perturb=perturb, tolerance_scale=scale)
    assert forks == [1]
    _assert_no_children()
    assert operators._fault_eps.get() == 0.0
    assert _json(forked, seed, scale, perturb) == _group_by_group(seed, None, perturb, scale)


def test_fallback_single_cpu(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _json(run_suite(seed=1, groups=SMALL), 1) == _group_by_group(1, SMALL)
    assert forks == []


def test_fallback_fork_raises(forks, monkeypatch):
    def fork():
        forks.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    assert _json(run_suite(seed=1, groups=SMALL), 1) == _group_by_group(1, SMALL)
    assert forks == [1]
    _assert_no_children()


def test_fallback_second_thread(forks):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        reports = run_suite(seed=1, groups=SMALL)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    assert _json(reports, 1) == _group_by_group(1, SMALL)


def _wrap_runners(monkeypatch, wrap):
    """Replace each group's runner by ``wrap(name, runner)``."""
    monkeypatch.setattr(suite, "GROUPS", tuple((n, wrap(n, r)) for n, r in suite.GROUPS))


def test_raising_group_earliest_in_registry_order_wins(forks, monkeypatch):
    def first(rng, ts):
        raise ArithmeticError("the earlier group")

    def second(rng, ts):
        raise LookupError("the later group")

    # the queue hands out the later group first
    _wrap_runners(monkeypatch, {"rl-caputo-decay": first, "convolution": second}.get)
    with pytest.raises(ArithmeticError, match="^the earlier group$"):
        run_suite(seed=0, groups=SMALL)
    assert forks == [1]
    _assert_no_children()


@pytest.mark.parametrize("how", ["raises", "dies"])
def test_group_a_child_does_not_return_reruns_in_process(forks, monkeypatch, tmp_path, how):
    parent = os.getpid()
    expected = _group_by_group(6, SMALL)

    def only_here(name, runner):
        def run(rng, ts):
            if os.getpid() != parent:
                (tmp_path / name).touch()
                if how == "dies":
                    os._exit(7)
                raise RuntimeError("child only")
            deadline = time.monotonic() + 30
            while not any(tmp_path.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.01)  # until the child has taken a group
            return runner(rng, ts)

        return run

    _wrap_runners(monkeypatch, only_here)
    assert _json(run_suite(seed=6, groups=SMALL), 6) == expected
    assert forks == [1] and any(tmp_path.iterdir())
    _assert_no_children()


def test_parent_interrupt_kills_and_reaps_children(forks, monkeypatch):
    parent = os.getpid()

    def interrupted(rng, ts):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # only the parent's kill ends this
        return []

    _wrap_runners(monkeypatch, lambda name, runner: interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_suite(seed=0, groups=SMALL)
    assert time.perf_counter() - start < 30
    _assert_no_children()


@pytest.mark.parametrize("action", ["error", "always"])
def test_fork_deprecation_warning_stays_quiet(forks, monkeypatch, action):
    # Python 3.12+ os.fork warns in the parent when the process has a
    # second OS thread (numpy's BLAS pool is one)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        reports = run_suite(seed=8, groups=SMALL)
    assert forks == [1]
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
    _assert_no_children()
    assert _json(reports, 8) == _group_by_group(8, SMALL)
