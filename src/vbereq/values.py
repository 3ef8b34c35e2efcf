"""Exact metric values and their display forms.

Metric arithmetic in this package is done with :class:`fractions.Fraction`
so that threshold comparisons are exact. Floats never participate in a
comparison; they appear only in rendered output, and even there the decimal
digits are produced by integer arithmetic.

Degenerate computations do not raise. They yield one of two sentinels:

* ``UNDEFINED`` -- the value has no meaning (a ratio over an empty
  denominator, an average over an empty set).
* ``UNREACHABLE`` -- a path-based value where no directed path exists.

Any comparison that touches a sentinel is false, so a requirement written
against such a value simply fails instead of blowing up.
"""

from __future__ import annotations

from fractions import Fraction


class Sentinel:
    """Marker for a metric computation that has no numeric value."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


UNDEFINED = Sentinel("UNDEFINED")
UNREACHABLE = Sentinel("UNREACHABLE")

MetricResult = int | Fraction | Sentinel
DECIMAL_PLACES = 4


def is_defined(value: MetricResult) -> bool:
    """True when ``value`` is an actual number rather than a sentinel."""
    return not isinstance(value, Sentinel)


def _round_half_up(value: Fraction, scale: int) -> int:
    # floor(value * scale + 1/2) computed exactly on integers
    num = value.numerator * scale * 2 + value.denominator
    return num // (2 * value.denominator)


def fraction_str(value: MetricResult, ratio: tuple[int, int] | None = None) -> str:
    """Render a value as an exact fraction.

    When ``ratio`` is given it is the unreduced numerator/denominator pair
    observed in the data (say ties over ordered pairs) and is preferred over
    the reduced form, because ``51/90`` is auditable against the raw counts
    in a way ``17/30`` is not.
    """
    if isinstance(value, Sentinel):
        return value.name.lower()
    if ratio is not None:
        return f"{ratio[0]}/{ratio[1]}"
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def decimal_str(value: MetricResult) -> str:
    """Render a value as a decimal with DECIMAL_PLACES digits, round half up."""
    if isinstance(value, Sentinel):
        return value.name.lower()
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    scale = 10**DECIMAL_PLACES
    scaled = _round_half_up(frac, scale)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // scale}.{scaled % scale:0{DECIMAL_PLACES}d}"


def percent_str(value: MetricResult) -> str:
    """Render a value in [0, 1] as an integer percentage, round half up."""
    if isinstance(value, Sentinel):
        return value.name.lower()
    return f"{_round_half_up(Fraction(value) * 100, 1)}%"
