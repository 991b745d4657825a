import json

import pytest

from nablatc.identities import IdentityReport
from nablatc.suite import CORE_GROUPS, GROUPS, _tag, reports_to_json_dict, run_suite


def test_group_registry_covers_core():
    names = [name for name, _ in GROUPS]
    for g in CORE_GROUPS:
        assert g in names


def test_suite_deterministic():
    a = run_suite(seed=123, groups=("integer-defect",))
    b = run_suite(seed=123, groups=("integer-defect",))
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_suite_seed_changes_instances():
    a = run_suite(seed=1, groups=("gl-rl-agree",))
    b = run_suite(seed=2, groups=("gl-rl-agree",))
    assert [r.max_abs_dev for r in a] != [r.max_abs_dev for r in b]


def test_filter_is_independent_of_other_groups():
    full = run_suite(seed=5)
    only = run_suite(seed=5, only="sum-composition")
    full_sub = [r for r in full if r.params["group"] == "sum-composition"]
    assert [r.to_dict() for r in only] == [r.to_dict() for r in full_sub]


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


def test_tolerance_scale_argument():
    strict = run_suite(seed=0, groups=("gl-rl-agree",), tolerance_scale=1e-12)
    assert any(not r.passed for r in strict)


def test_tag_leaves_input_report_unchanged():
    report = IdentityReport("x", 0.0, 1.0, 1.0, {"alpha": 0.5, "instance": 0})
    tagged = _tag(report, instance=3, n=2)
    assert report.params == {"alpha": 0.5, "instance": 0}
    assert list(tagged.params.items()) == [("alpha", 0.5), ("instance", 3), ("n", 2)]
    assert tagged.params is not report.params


@pytest.mark.parametrize("seed", [0, 7])
def test_in_process_rerun_is_byte_identical(seed):
    # a cached array mutated by the first pass would change the second
    first, second = (
        json.dumps(reports_to_json_dict(run_suite(seed=seed), seed, 1.0, None), sort_keys=True)
        for _ in range(2)
    )
    assert first == second
