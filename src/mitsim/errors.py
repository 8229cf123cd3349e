"""Exception types shared across the simulator, and the field and number
checks that raise one for scenario input."""


class ValidationError(ValueError):
    """A scenario or network description violates a structural constraint.

    The message always names the offending identifier.
    """


class CodecError(ValueError):
    """A byte stream could not be decoded as a warning message.

    Carries the byte offset at which decoding failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"error at byte {position}: {message}")
        self.position = position


class InfeasibleError(RuntimeError):
    """A requested adaptation cannot be realized on the current network."""


def require(entry, where: str, key: str):
    """The required ``key`` field of the scenario entry ``where``.

    A missing field raises a :class:`ValidationError` naming the entry and
    the field instead of a ``KeyError``.
    """
    if key not in entry:
        raise ValidationError(f"{where}: missing field {key!r}")
    return entry[key]


def as_float(value, where: str, key: str) -> float:
    """``float(value)`` for the ``key`` field of the scenario entry ``where``.

    A value ``float`` rejects, and an integer beyond every float, raise a
    :class:`ValidationError` naming the entry and the field instead.
    """
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: {key} must be a number") from None
    except OverflowError:
        raise ValidationError(f"{where}: {key} is too large") from None


def as_int(value, where: str, key: str) -> int:
    """``int(value)`` for the ``key`` field of the scenario entry ``where``.

    A value ``int`` rejects (text that is no integer, null, a list, an
    infinite or NaN float) raises a :class:`ValidationError` naming the
    entry and the field instead.
    """
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where}: {key} must be an integer") from None
