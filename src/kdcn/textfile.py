"""The one line reader and the one line writer behind every kdcn text file.

Files are UTF-8 and written with LF line ends. A line ends at LF; the reader
drops the LF and a CR just before it, and skips lines that are empty or hold
only whitespace. A line that is not UTF-8, or that the format's parse
function rejects with a KdcnError, ValueError, TypeError or KeyError, is a
ParseError starting "path:line:".
"""

from typing import Callable, Iterable, Iterator

from .errors import KdcnError, ParseError


def iter_lines(path, parse: Callable[[str], object], header: str | None = None) -> Iterator:
    """parse(line) for every non-blank line in file order, as the file is read;
    a header, if given, must be line 1. A caller that stops early reads no
    further, so a bad line after that point is not seen."""
    lineno = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").removesuffix("\n").removesuffix("\r")
                if lineno == 1 and header is not None:
                    if line != header:
                        raise ParseError(f"expected header '{header}', got '{line}'")
                    continue
                if not line.strip():
                    continue
                record = parse(line)
            except (KdcnError, ValueError, TypeError, KeyError) as exc:
                # UnicodeDecodeError is a ValueError
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            yield record
    if header is not None and lineno == 0:
        raise ParseError(f"{path}:1: expected header '{header}', got ''")


def read_lines(path, parse: Callable[[str], object], header: str | None = None) -> list:
    """iter_lines as a list: every line of the file is read and parsed."""
    return list(iter_lines(path, parse, header))


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line followed by LF, in UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
