"""Result record shared by the identity-verification helpers."""

from collections import namedtuple


class CheckReport(namedtuple("CheckReport", "name passed detail", defaults=("",))):
    """Outcome of one identity verification."""

    __slots__ = ()

    @classmethod
    def compare(cls, name: str, lhs, rhs, detail: str) -> "CheckReport":
        """Exact comparison of two series: passes with ``detail`` when they
        are equal, and otherwise names the first exponent where they differ."""
        if lhs == rhs:
            return cls(name, True, detail)
        return cls(name, False, f"first difference at {lhs.first_difference(rhs)}")

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status}" + (f" ({self.detail})" if self.detail else "")
