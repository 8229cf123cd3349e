"""Exception types shared across the simulator, and the entry, field, id
and number checks that raise one for scenario input."""


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


def entries(items, section: str, noun: str, id_key: str | None = None):
    """The entries of the scenario list ``section``, in document order.

    Yields ``(i, entry)`` for each entry, a JSON object.  With an
    ``id_key`` every entry must carry that field, a string unique in the
    list, and ``(id, entry)`` is yielded instead; ``id_key=""`` reads a
    list of bare ids.  The first bad entry raises a :class:`ValidationError`
    naming it, e.g. ``<noun> <i>: missing field '<key>'`` or ``duplicate
    <noun> identifier <id>``.
    """
    if not isinstance(items, list):
        raise ValidationError(f"{section} must be a list")
    seen: set[str] = set()
    for i, entry in enumerate(items):
        if id_key == "":
            entry_id = entry
        elif not isinstance(entry, dict):
            raise ValidationError(f"{noun} {i} must be an object")
        elif id_key is None:
            yield i, entry
            continue
        elif id_key in entry:
            entry_id = entry[id_key]
        else:
            raise ValidationError(f"{noun} {i}: missing field {id_key!r}")
        if not isinstance(entry_id, str):
            raise ValidationError(f"{noun} {i}: {id_key or 'id'} must be a string")
        if entry_id in seen:
            raise ValidationError(f"duplicate {noun} identifier {entry_id}")
        seen.add(entry_id)
        yield entry_id, entry


def known(value, registry, where: str, what: str) -> str:
    """``value``, a reference from the scenario entry ``where`` to a
    ``what`` id, which must be a string that ``registry`` holds."""
    if not isinstance(value, str) or value not in registry:
        raise ValidationError(f"{where}: unknown {what} {value}")
    return value


def id_pair(value, where: str, key: str) -> tuple[str, str]:
    """``value``, the ``key`` field of ``where``, as a pair of string ids."""
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(v, str) for v in value)):
        raise ValidationError(f"{where}: {key} must be a pair of ids")
    return value[0], value[1]


def as_list(value, where: str, key: str) -> list:
    """``value``, the ``key`` field of ``where``, which must be a list."""
    if not isinstance(value, list):
        raise ValidationError(f"{where}: {key} must be a list")
    return value


def as_object(value, where: str, key: str) -> dict:
    """``value``, the optional ``key`` object of ``where``; null reads as
    an empty object."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: {key} must be an object")
    return value


def require(entry, where: str, key: str):
    """The required ``key`` field of the scenario entry ``where``.

    A missing field raises a :class:`ValidationError` naming the entry and
    the field instead of a ``KeyError``.
    """
    if key not in entry:
        raise ValidationError(f"{where}: missing field {key!r}")
    return entry[key]


def as_bool(value, where: str, key: str) -> bool:
    """``value``, the ``key`` flag of the scenario entry ``where``: JSON true or false."""
    if not isinstance(value, bool):
        raise ValidationError(f"{where}: {key} must be true or false")
    return value


def as_float(value, where: str, key: str) -> float:
    """``value``, the ``key`` field of the scenario entry ``where``, which
    must be a JSON number, as a float.

    Anything else (a string such as ``"inf"``, a boolean, null, a list),
    and an integer beyond every float, raise a :class:`ValidationError`
    naming the entry and the field.
    """
    kind = type(value)
    if kind is float:
        return value
    if kind is int:
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{where}: {key} is too large") from None
    raise ValidationError(f"{where}: {key} must be a number")


def as_int(value, where: str, key: str) -> int:
    """``value``, the ``key`` field of the scenario entry ``where``, which
    must be a JSON number with an integral value, as an int.

    Anything else (a string such as ``"3"``, a boolean, null, a list, an
    object, a float with a fraction such as ``2.7``, an infinite or NaN
    float) raises a :class:`ValidationError` naming the entry and the field.
    """
    kind = type(value)
    if kind is int:
        return value
    if kind is float and value.is_integer():
        return int(value)
    raise ValidationError(f"{where}: {key} must be an integer")
