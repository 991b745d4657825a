"""Fingerprint of the verification suite's JSON output over a list of seeds.

Prints one sha256 over ``reports_to_json_dict(run_suite(seed))`` for every
seed given, serialized as ``nt verify`` writes it, and names each failing
check, so two trees can be compared for byte-identical suite output::

    PYTHONPATH=src python tests/suite_digest.py 0-99 115 1128935333

A seed argument is a single seed or an inclusive range ``lo-hi``.  The
``NT_TOLERANCE_SCALE`` environment variable applies as in ``nt verify``.
Not collected by pytest (its name does not start with ``test_``).
"""

from __future__ import annotations

import hashlib
import json
import sys

from nablatc.suite import resolve_tolerance_scale, reports_to_json_dict, run_suite


def seeds_from(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    seeds = seeds_from(argv)
    scale = resolve_tolerance_scale()
    digest = hashlib.sha256()
    for seed in seeds:
        reports = run_suite(seed=seed, tolerance_scale=scale)
        payload = reports_to_json_dict(reports, seed, scale, None)
        digest.update(json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n")
        for r in reports:
            if not r.passed:
                print(
                    f"seed {seed}: {r.identity_id} instance {r.params.get('instance')} "
                    f"fails: {r.max_abs_dev!r} > {r.tolerance!r}"
                )
    print(f"sha256 {digest.hexdigest()} over {len(seeds)} seeds ({' '.join(argv)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
