"""Rational scalars and their "p/q" wire format.

All exact quantities in this package are `fractions.Fraction` values,
which are kept in lowest terms with a positive denominator by the
standard library. They serialize as "p/q", or "p" when the denominator
is one.
"""

from fractions import Fraction

from .errors import ValidationError


def parse_rational(value):
    """Parse an int, Fraction or "p/q" string into a Fraction; booleans
    are rejected."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # excludes bool
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError("invalid-rational", f"cannot parse rational {value!r}") from exc
    raise ValidationError("invalid-rational", f"cannot parse rational from {type(value).__name__}")


def parse_int(value, what):
    """Parse an int, an integral Fraction or an integral "p/q" string.

    Booleans, floats and non-integral values are rejected rather than
    truncated.
    """
    if type(value) is int:  # excludes bool
        return value
    if isinstance(value, (Fraction, str)):
        try:
            x = Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            if x.denominator == 1:
                return x.numerator
    raise ValidationError("invalid-integer", f"{what} must be an integer, got {value!r}")


def format_rational(x):
    """Format a Fraction as "p/q", or "p" when integral."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"

