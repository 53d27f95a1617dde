"""The toolkit's exception hierarchy; `require` and `require_types`, the config checks;
and `parse_number`, the one rule by which every number the command line reads is parsed.

Each class's `exit_code` is what the command line returns for it: 2 for a
ValidationError, 4 for a NumericalFailureError, 3 for any other (data) error. An
experiment whose dataset fails every trial exits with that dataset's first trial's code."""

import numbers
from dataclasses import fields


class FairauditError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 3


class ValidationError(FairauditError):
    """A spec, parameter, or input failed validation; message names the field."""
    exit_code = 2


class DegenerateDatasetError(FairauditError):
    """A dataset is empty, or a (group, label) cell is too small for downstream use."""


class NumericalFailureError(FairauditError):
    """The fit hit a non-finite value: a feature's mean or variance, or the loss."""
    exit_code = 4


class DataFormatError(FairauditError):
    """An input file is malformed; message carries the line number."""


def require(owner, names: str, holds, rule: str) -> None:
    """Raise ValidationError(f"{name} must {rule}, got {value}") for the first of
    owner's space-separated fields whose value fails holds, the condition that must
    hold. NaN fails every comparison, and a rule whose test raises TypeError,
    ValueError or OverflowError fails too ('5' > 0, an array's truth, 10**400 as a
    float). A string value is quoted, so '3' does not read as the number 3, and an
    integer too long to print (10**5000) is shown by its size in bits.
    load_config maps the leading field name of this one message form to the config
    file's [section] key.
    """
    for name in names.split():
        value = getattr(owner, name)
        try:
            held = bool(holds(value))
        except (TypeError, ValueError, OverflowError):
            held = False
        if not held:
            try:
                shown = repr(value) if isinstance(value, str) else str(value)
            except ValueError:  # an int past Python's limit on digits converted to text
                shown = f"an integer of {value.bit_length()} bits"
            raise ValidationError(f"{name} must {rule}, got {shown}")


def in_unit(value) -> bool:
    """Whether value lies in [0, 1]."""
    return 0.0 <= value <= 1.0


# the class an int or a float field's value must be an instance of, and its name
_NUMBERS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number")}


def require_types(owner) -> None:
    """require, for each field of the dataclass owner in declaration order, that its value
    is an instance of the class its annotation (a string or a class) names: numbers.Integral
    for `int` and numbers.Real for `float`, so numpy's numbers count, and its default's class
    for any other. Only a bool field takes a bool."""
    for f in fields(owner):
        cls = type(f.default)
        cls, noun = _NUMBERS.get(getattr(f.type, "__name__", f.type), (cls, f"a {cls.__name__}"))
        require(owner, f.name, lambda v: isinstance(v, cls)
                and (cls is bool or not isinstance(v, bool)), f"be {noun}")


def parse_number(text: str, kind):
    """text as kind, int or float, by np.loadtxt's rule for a CSV field: Python's int or
    float of the stripped text, less the spellings only Python reads (1_0, non-ASCII digits).
    Raises ValueError(f"could not convert {text!r} to {kind.__name__}") for any other text."""
    stripped = text.strip()
    if stripped.isascii() and "_" not in stripped:
        try:
            return kind(stripped)
        except ValueError:  # also an int of more than Python's limit on digits
            pass
    raise ValueError(f"could not convert {text!r} to {kind.__name__}")
