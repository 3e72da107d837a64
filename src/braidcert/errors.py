"""Shared exception types."""


class ParseError(ValueError):
    """Malformed input text; ``position`` is the character offset of the problem."""

    def __init__(self, message: str, text: str, position: int) -> None:
        super().__init__(f"{message} at position {position}: {text!r}")
        self.message = message
        self.text = text
        self.position = position


def parse_int(digits: str, text: str, position: int) -> int:
    """``int(digits)``; more digits than Python converts end in a ``ParseError`` at ``position``."""
    try:
        return int(digits)
    except ValueError:  # over sys.get_int_max_str_digits()
        raise ParseError(f"number too long ({len(digits)} digits)", text, position) from None


class ExactDivisionError(ArithmeticError):
    """Exact polynomial division failed (the divisor does not divide the dividend)."""


class ReflectionError(ValueError):
    """A Coxeter word does not define a reflection of the expected shape."""
