"""Run reports: a fixed-key-order summary of one training run.

Reports serialize to JSON deterministically (the fields' declaration
order is the key order), so two runs with identical configs and seeds
produce byte-identical files once the wall-clock fields are stripped.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from . import __version__


def strip_wall_clock(obj):
    """Recursively drop *_ns keys (the only nondeterministic fields)."""
    if isinstance(obj, dict):
        return {k: strip_wall_clock(v) for k, v in obj.items() if not k.endswith("_ns")}
    if isinstance(obj, list):
        return [strip_wall_clock(v) for v in obj]
    return obj


@dataclass(kw_only=True)
class RunReport:
    """One run's report; the fields are declared in serialization order."""

    version: str = __version__
    mode: str
    config: dict
    best_epoch: int = -1
    final_metrics: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    speed: dict = field(default_factory=dict)
    history: list = field(default_factory=list)   # one dict per epoch

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def deterministic_json(self) -> str:
        """Serialization with wall-clock fields removed, for diffing."""
        return json.dumps(strip_wall_clock(self.to_dict()), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))
