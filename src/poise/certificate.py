"""Base class of the verifiers' certificates.

A certificate lists the quantities its claim bounds as (name, value, bound)
triples; the claim holds iff every value is at most its bound. The solvers
and `poise check` read `passed` and `failures()` from the same object.
"""
from dataclasses import dataclass, field


@dataclass
class Certificate:
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = not self.failures()

    def limits(self):
        raise NotImplementedError

    def failures(self) -> list:
        """One line per quantity above its bound (NaN counts as above)."""
        return [f"{name} = {float(value):.6g} exceeds {float(bound):.6g}"
                for name, value, bound in self.limits() if not value <= bound]
