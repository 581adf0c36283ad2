"""Verification report containers shared by the identity checkers and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, is_dataclass, asdict

import numpy as np


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and dataclasses to JSON types."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
        return repr(obj)
    return obj


@dataclass
class VerificationReport:
    """Both sides of an identity (integers), inputs echo and a verdict.

    passed is true exactly when every asserted integer equality holds.
    """

    command: str
    inputs: dict
    values: dict
    passed: bool
    tolerances: dict = field(default_factory=dict)
    details: list = field(default_factory=list)
    timing_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": jsonable(self.inputs),
            "values": jsonable(self.values),
            "passed": bool(self.passed),
            "tolerances": jsonable(self.tolerances),
            "details": jsonable(self.details),
            "timing_s": float(self.timing_s),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
