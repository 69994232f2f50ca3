"""Exception types shared across the package, and the two domain checks that raise them."""

import math
from numbers import Integral, Real


class ParameterError(ValueError):
    """A physical or protocol parameter is outside its valid domain."""


class DegenerateChannelError(ParameterError):
    """The channel produces no detection events (y1 = 0 or eta = 0)."""


class ConfigError(ValueError):
    """A config file or override could not be parsed or validated."""


class MalformedStreamError(ValueError):
    """A compressed bit stream does not parse as a codeword sequence."""


class SimulationIntegrityError(RuntimeError):
    """Internal cross-check failed during a simulation (decode mismatch)."""


def check_count(name: str, value, minimum: int = 0, maximum: float = math.inf) -> None:
    """``value`` must be a Python or numpy integer in [minimum, maximum]."""
    if not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not minimum <= value <= maximum:
        bound = f"be >= {minimum}" if maximum == math.inf else f"lie in [{minimum}, {maximum}]"
        raise ParameterError(f"{name} must {bound}, got {value}")


def check_range(name: str, value, low: float, high: float = math.inf,
                ends: str = "[]") -> None:
    """``value`` must be a real number in the interval ``ends[0] low, high ends[1]``.

    ``ends`` is "[]", "[)", "(]" or "()".  An infinite ``high`` means finite,
    whatever the bracket; NaN fails every interval.
    """
    if not isinstance(value, Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    above = low <= value if ends[0] == "[" else low < value
    below = value <= high if ends[1] == "]" and high != math.inf else value < high
    if not (above and below):
        bound = (f"be finite and {'>=' if ends[0] == '[' else '>'} {low:g}"
                 if high == math.inf else f"lie in {ends[0]}{low:g}, {high:g}{ends[1]}")
        raise ParameterError(f"{name} must {bound}, got {value}")
