"""Auxiliary CBOR value types (tags and simple values)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Tag:
    """A tagged CBOR value (major type 6).

    Attributes
    ----------
    number:
        The tag number (e.g. ``1`` for epoch-based time).
    value:
        The tagged content, any encodable CBOR value.
    """

    number: int
    value: Any


@dataclass(frozen=True)
class Simple:
    """A CBOR simple value (major type 7) other than false/true/null."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 255 or 24 <= self.value < 32:
            raise ValueError(f"invalid simple value {self.value}")


#: The CBOR ``undefined`` simple value (0xf7).
UNDEFINED = Simple(23)
