"""Report record serialization and merging."""

import json

import numpy as np

from sde_lab.reports import CheckReport, merge_reports


def test_to_dict_keys_and_types():
    rep = CheckReport(
        check="demo",
        params={"a": np.float64(1.5), "flag": np.bool_(True)},
        max_violation=np.float64(-0.25),
        grid_size=np.int64(7),
        passed=np.bool_(True),
    )
    d = rep.to_dict()
    assert set(d) == {"check", "params", "max_violation", "grid_size", "passed"}
    assert type(d["max_violation"]) is float
    assert type(d["grid_size"]) is int
    assert type(d["passed"]) is bool
    assert type(d["params"]["a"]) is float
    assert type(d["params"]["flag"]) is bool


def test_to_json_handles_numpy_payloads():
    rep = CheckReport(
        check="demo",
        params={
            "vec": np.arange(3.0),
            "nested": {"inner": np.int32(4), "seq": [np.float32(0.5)]},
        },
    )
    parsed = json.loads(rep.to_json())
    assert parsed["params"]["vec"] == [0.0, 1.0, 2.0]
    assert parsed["params"]["nested"]["inner"] == 4
    assert parsed["params"]["nested"]["seq"] == [0.5]


def test_merge_semantics():
    a = CheckReport("one", {"k": 1}, max_violation=-1.0, grid_size=10, passed=True)
    b = CheckReport("two", {"k": 2}, max_violation=-0.5, grid_size=5, passed=True)
    merged = merge_reports("bundle", [a, b])
    assert merged.passed
    assert merged.max_violation == -0.5
    assert merged.grid_size == 15
    assert merged.params == {"0_one": {"k": 1}, "1_two": {"k": 2}}

    c = CheckReport("three", {}, max_violation=0.2, grid_size=1, passed=False)
    assert not merge_reports("bundle", [a, c]).passed
    assert merge_reports("empty", []).passed


def test_nan_violation_never_passes():
    nan = CheckReport("c", {}, float("nan"), 1, True)
    assert nan.passed is False and json.loads(nan.to_json())["passed"] is False
    assert CheckReport("c", {}, float("inf"), 1, True).passed  # inf keeps its meaning
    ok = CheckReport("ok", {}, -1e-7, 1, True)
    merged = merge_reports("bundle", [ok, nan])
    assert np.isnan(merged.max_violation) and not merged.passed
    assert np.isnan(merge_reports("bundle", [nan, ok]).max_violation)
