"""Exception and warning types, and the text-file reader that raises them."""


class LeoSrpError(Exception):
    """Base class for all toolkit errors."""


class DomainError(LeoSrpError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidDateError(DomainError):
    """A calendar date or time component is out of range."""


class DegenerateOrbitError(DomainError):
    """A state or element set has no usable orbital geometry."""


class ConvergenceError(LeoSrpError):
    """An iterative solver failed to reach its tolerance."""


class FormatError(LeoSrpError, ValueError):
    """Text input does not match the expected layout.

    Carries an optional source path and 1-based line number so callers can
    report exactly where a file went wrong.
    """

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None and line is not None:
            where = f"{path}:{line}: "
        elif path is not None:
            where = f"{path}: "
        elif line is not None:
            where = f"line {line}: "
        super().__init__(where + message)


def read_text(path: str) -> str:
    """A file's UTF-8 text, with newlines translated as text mode does.

    Raises FormatError (path and line) at the first byte that is not UTF-8.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        at = exc.start
        raise FormatError(f"not UTF-8 text: byte 0x{data[at]:02x} at offset "
                          f"{at}", path=path,
                          line=data.count(b"\n", 0, at) + 1) from None


class ChecksumError(FormatError):
    """A TLE line checksum does not match its stated value."""


class EphemerisRangeError(LeoSrpError):
    """An epoch falls outside the span of an ephemeris table."""


class FetchError(LeoSrpError):
    """A remote ephemeris query failed."""


class DivergenceError(LeoSrpError):
    """Gradient descent produced a non-finite loss."""


class MetricError(LeoSrpError):
    """A requested metric is undefined for the given data."""


class TleFormatWarning(UserWarning):
    """Strict fixed-column TLE layout failed; token parsing was used."""


class ChecksumWarning(UserWarning):
    """A TLE checksum could not be confirmed after whitespace normalization."""
