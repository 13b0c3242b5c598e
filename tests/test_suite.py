import dataclasses
import json

from lueders.suite import QUICK, run_suite

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
    text = json.dumps(report.to_dict(), allow_nan=False)
    details = {c["id"]: c["details"] for c in json.loads(text)["criteria"]}
    assert details["C3"]["sets"] == 0 and details["C3"]["min_commutator_norm"] is None
    assert details["C5"]["sets"] == 0 and details["C5"]["max_probe_excess"] is None
    assert details["C7"]["cases"] == 0 and details["C7"]["min_margin"] is None
    assert details["C9"] == {"trials": 0, "disagreements": 0}


def test_suite_details_keep_their_key_order():
    keys = {r.id: list(r.details) for r in run_suite(EMPTY).results}
    assert keys["C1"] == ["sets", "max_distance", "failures"]
    assert keys["C3"] == ["sets", "max_distance", "min_commutator_norm", "failures"]
    assert keys["C5"] == ["sets", "max_probe_excess", "failures"]
