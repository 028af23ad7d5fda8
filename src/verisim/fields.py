"""Field rules for every input boundary: scenario and model files, dataset rows, closed-form parameters.

Each rule returns the value it accepts and otherwise raises ``ValueError``
with a message that starts with the field's name.  Booleans are not numbers
here: a JSON ``true`` in a numeric field is rejected.
"""

import math
import numbers
from dataclasses import MISSING, fields


def require_finite(name: str, value, minimum=-math.inf, maximum=math.inf):
    """A real number that is finite and lies in [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    # NaN fails every comparison and inf never ends a run: test both explicitly
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not minimum <= value <= maximum:
        raise ValueError(f"{name} must lie in [{minimum}, {maximum}], got {value!r}")
    return value


def require_positive(name: str, value):
    """A finite real number above 0."""
    if require_finite(name, value) <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def require_integer(name: str, value, minimum: int = 1, maximum: int | None = None) -> int:
    """An integer, not a bool, in [minimum, maximum] (no upper bound when maximum is None)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < minimum
        or (maximum is not None and value > maximum)
    ):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def require_list(name: str, value) -> list:
    """A JSON array, read as a list."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {type(value).__name__}")
    return value


def require_object(name: str, value, cls) -> dict:
    """An object whose keys are fields of dataclass ``cls``, with every field that has no default."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    known = [f for f in fields(cls) if f.init]
    unknown = sorted(set(value) - {f.name for f in known})
    if unknown:
        raise ValueError(f"{name} must not have {unknown}: unknown {name} keys")
    missing = [f.name for f in known if f.default is MISSING and f.default_factory is MISSING and f.name not in value]
    if missing:
        raise ValueError(f"{name} must have {missing}: {cls.__name__} requires them")
    return value
