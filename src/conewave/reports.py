"""Flat report records emitted by the inequality verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EstimateReport:
    """Outcome of one numerical inequality certification.

    ``violations`` must be zero for asserted inequalities; ``max_ratio`` is
    the largest LHS/RHS seen.  When the reference constant is not explicit,
    ``empirical_constant`` carries the measured sup ratio instead and the
    bound is reported rather than asserted.
    """

    name: str
    samples: int = 0
    max_ratio: float = 0.0
    violations: int = 0
    empirical_constant: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "samples": self.samples,
            "max_ratio": self.max_ratio,
            "violations": self.violations,
            "empirical_constant": self.empirical_constant,
        }
        out.update({k: self.extra[k] for k in sorted(self.extra)})
        return out
