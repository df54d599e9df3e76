"""Uniform pass/fail report record for all verification routines."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def _plain(value):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class CheckReport:
    """Outcome of one sampled or gridded inequality check.

    max_violation is oriented so that <= 0 means the bound held everywhere;
    its scale (ratio excess, absolute excess, log-space excess) is recorded
    in params["violation_scale"] by the producing routine. A NaN violation
    never passes: nothing was shown to hold.
    """

    check: str
    params: dict[str, Any] = field(default_factory=dict)
    max_violation: float = 0.0
    grid_size: int = 0
    passed: bool = True

    def __post_init__(self):
        if math.isnan(self.max_violation):
            self.passed = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "params": _plain(self.params),
            "max_violation": float(self.max_violation),
            "grid_size": int(self.grid_size),
            "passed": bool(self.passed),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def merge_reports(check: str, reports: list[CheckReport]) -> CheckReport:
    """Combine sub-checks into one record; fails if any sub-check failed."""
    return CheckReport(
        check=check,
        params={f"{i}_{r.check}": r.params for i, r in enumerate(reports)},
        max_violation=float(np.max([float(r.max_violation) for r in reports] or [0.0])),
        grid_size=sum(r.grid_size for r in reports),
        passed=all(bool(r.passed) for r in reports),
    )
