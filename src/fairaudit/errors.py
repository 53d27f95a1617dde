"""The toolkit's exception hierarchy, and `require`, which checks config fields.

Each class's `exit_code` is what the command line returns for it: 2 for a
ValidationError, 4 for a NumericalFailureError, 3 for any other (data) error. An
experiment whose dataset fails every trial exits with that dataset's first trial's code."""

import numbers


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


def is_int(value) -> bool:
    """Whether value is an integer, a numpy one included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is a real number, a numpy one included, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
