import dataclasses
import json

import pytest

from lueders import suite
from lueders.suite import FULL, QUICK, run_suite

EMPTY = dataclasses.replace(
    QUICK,
    name="empty",
    res_dims=(),
    sub_dims=(),
    nc_dims=(),
    witness_cases=0,
    contraction_cases=0,
)


def test_empty_pools_give_standard_json():
    report = run_suite(EMPTY)
    text = json.dumps([dataclasses.asdict(r) for r in report.results], allow_nan=False)
    details = {c["id"]: c["details"] for c in json.loads(text)}
    assert details["C3"]["sets"] == 0 and details["C3"]["min_commutator_norm"] is None
    assert details["C5"]["sets"] == 0 and details["C5"]["max_probe_excess"] is None
    assert details["C7"]["cases"] == 0 and details["C7"]["min_margin"] is None
    assert details["C9"] == {"trials": 0, "disagreements": 0}


def test_suite_details_keep_their_key_order():
    keys = {r.id: list(r.details) for r in run_suite(EMPTY).results}
    assert keys == {
        "C1": ["sets", "max_distance", "failures"],
        "C2": ["sets", "max_distance", "zero_unit_fraction_sets", "failures"],
        "C3": ["sets", "max_distance", "min_commutator_norm", "failures"],
        "C4": ["sets", "max_half_identity_distance", "max_residual", "failures"],
        "C5": ["sets", "max_probe_excess", "failures"],
        "C6": ["cases", "max_oracle_gap", "commuting_detected", "failures"],
        "C7": ["cases", "min_margin", "failures", "bound_1_2_100", "bound_1_2_100_printed", "limit_gap_at_p_1e6"],
        "C8": ["sets", "failures"],
        "C9": ["trials", "disagreements"],
        "C10": ["eig_trials", "max_relative_reconstruction", "window_effects", "max_partition_defect"],
    }


def test_criteria_return_passed_and_details_and_the_table_describes_them():
    ids = [f"C{i}" for i in range(1, 11)]
    assert list(suite.CRITERIA) == ids
    assert list(suite._DESCRIPTIONS) == ids
    for cid, check in suite.CRITERIA.items():
        outcome = check(EMPTY)
        assert type(outcome) is tuple and len(outcome) == 2, cid
        assert type(outcome[0]) is bool and type(outcome[1]) is dict, cid
    report = run_suite(EMPTY)
    assert [(r.id, r.description) for r in report.results] == list(suite._DESCRIPTIONS.items())


def _nested_loop_schedule(scale):
    """The (d, n, seed[, unit fraction]) calls of each pool, as plain nested loops."""
    res, sub, nc = [], [], []
    seed = 101
    for d in scale.res_dims:
        for n in scale.res_counts:
            for _ in range(scale.res_seeds):
                res.append((d, n, seed))
                seed += 1
    seed = 3001
    for uf in (0.0, 0.25, 0.5):
        for d in scale.sub_dims:
            for n in scale.sub_counts:
                for _ in range(scale.sub_seeds):
                    sub.append((d, n, seed, uf))
                    seed += 1
    seed = 5001
    for d in scale.nc_dims:
        for n in scale.nc_counts:
            for _ in range(scale.nc_seeds):
                nc.append((d, n, seed))
                seed += 1
    return res, sub, nc


@pytest.mark.parametrize("scale", [QUICK, FULL], ids=["quick", "full"])
def test_pools_call_their_generators_in_nested_loop_order(scale, monkeypatch):
    calls = {}

    def recorder(name):
        def generate(*args):
            calls.setdefault(name, []).append(args)
            return args

        return generate

    for name in ("generate_commuting_resolution", "generate_commuting_subnormalized", "generate_noncommuting_resolution"):
        monkeypatch.setattr(suite, name, recorder(name))
    fresh = dataclasses.replace(scale, name=f"{scale.name}-recorded")  # a new cache key
    res, sub, nc = _nested_loop_schedule(scale)
    assert suite._resolution_pool(fresh) == tuple(res)
    assert suite._subnormalized_pool(fresh) == tuple((args[3], args) for args in sub)
    assert suite._noncommuting_pool(fresh) == tuple(nc)
    assert calls == {
        "generate_commuting_resolution": res,
        "generate_commuting_subnormalized": sub,
        "generate_noncommuting_resolution": nc,
    }
