"""Column data types for the relational engine.

The engine supports a deliberately small set of scalar types — the précis
algorithms only ever compare values for equality (point selections, IN-list
selections and foreign-key joins), so rich type algebra is unnecessary.
What *is* needed, and provided here, is strict validation on insert,
canonical coercion (so that values loaded from CSV compare equal to values
inserted programmatically), and stable text rendering for the translator.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any, Callable

__all__ = [
    "DataType",
    "coerce",
    "validate",
    "render",
    "canonical_class",
    "text_parser",
]


class DataType(enum.Enum):
    """Scalar types storable in a column."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"
    BOOL = "bool"

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"DataType.{self.name}"


_TRUE_WORDS = frozenset({"true", "t", "yes", "y", "1"})
_FALSE_WORDS = frozenset({"false", "f", "no", "n", "0"})


def _bool_from_text(text: str) -> bool:
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"cannot coerce {text!r} to BOOL")


#: per type: how :func:`coerce` reads a ``str`` value
_FROM_TEXT: dict[DataType, Callable[[str], Any]] = {
    DataType.INT: lambda text: int(text.strip()),
    DataType.FLOAT: lambda text: float(text.strip()),
    DataType.TEXT: lambda text: text,
    DataType.DATE: lambda text: datetime.date.fromisoformat(text.strip()),
    DataType.BOOL: _bool_from_text,
}

#: per type: the exact class of its canonical values
_CANONICAL_CLASS: dict[DataType, type] = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.TEXT: str,
    DataType.DATE: datetime.date,
    DataType.BOOL: bool,
}


def text_parser(dtype: DataType) -> Callable[[str], Any]:
    """What :func:`coerce` does to a ``str`` value of *dtype*, as one
    function (CSV loading resolves it once per column)."""
    return _FROM_TEXT[dtype]


def canonical_class(dtype: DataType) -> type:
    """The class of *dtype*'s canonical values. :func:`coerce` returns
    a value of exactly this class unchanged, so a value of exactly this
    class needs no coercion."""
    return _CANONICAL_CLASS[dtype]


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce *value* into the canonical Python representation of *dtype*.

    ``None`` passes through unchanged (NULL handling is the schema's job).
    Raises :class:`ValueError` if the value cannot be represented in the
    target type; the caller wraps this into a
    :class:`~repro.relational.errors.TypeMismatchError` with context.
    """
    if value is None:
        return None
    if isinstance(value, str):
        return _FROM_TEXT[dtype](value)
    if dtype is DataType.INT:
        if isinstance(value, bool):
            raise ValueError("bool is not an INT")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ValueError(f"cannot coerce {value!r} to INT")
    if dtype is DataType.FLOAT:
        if isinstance(value, bool):
            raise ValueError("bool is not a FLOAT")
        if isinstance(value, (int, float)):
            return float(value)
        raise ValueError(f"cannot coerce {value!r} to FLOAT")
    if dtype is DataType.TEXT:
        raise ValueError(f"cannot coerce {value!r} to TEXT")
    if dtype is DataType.DATE:
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        raise ValueError(f"cannot coerce {value!r} to DATE")
    if dtype is DataType.BOOL:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise ValueError(f"cannot coerce {value!r} to BOOL")
    raise ValueError(f"unknown data type {dtype!r}")  # pragma: no cover


def validate(value: Any, dtype: DataType) -> bool:
    """Return True iff *value* is already in canonical form for *dtype*."""
    if value is None:
        return True
    if dtype is DataType.INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if dtype is DataType.FLOAT:
        return isinstance(value, float)
    if dtype is DataType.TEXT:
        return isinstance(value, str)
    if dtype is DataType.DATE:
        return isinstance(value, datetime.date) and not isinstance(
            value, datetime.datetime
        )
    if dtype is DataType.BOOL:
        return isinstance(value, bool)
    return False  # pragma: no cover


def render(value: Any) -> str:
    """Render a stored value as text for CSV export and the NL translator.

    NULL renders as the empty string; dates render ISO-8601; everything
    else uses ``str``. The rendering round-trips through :func:`coerce`.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)
