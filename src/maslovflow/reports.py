"""Verification report containers shared by the identity checkers and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Both sides of an identity (integers), inputs echo and a verdict.

    passed is true exactly when every asserted integer equality holds.  Every
    value is JSON as it stands: str-keyed dicts, lists and tuples, and Python
    scalars or numpy float64, which is a float.
    """

    command: str
    inputs: dict
    values: dict
    passed: bool
    tolerances: dict = field(default_factory=dict)
    details: list = field(default_factory=list)
    timing_s: float = 0.0

    def to_json(self) -> str:
        out = dict(vars(self), passed=bool(self.passed), timing_s=float(self.timing_s))
        return json.dumps(out, sort_keys=True, indent=2, allow_nan=False) + "\n"
