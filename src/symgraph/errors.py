"""Exception types shared across the package, and the text-file reader that
turns bytes which are not UTF-8 into one of them."""


class SymgraphError(Exception):
    """Base class for all package errors."""


class DimensionError(SymgraphError):
    """Tensor shapes are incompatible for the requested operation."""


class DomainError(SymgraphError):
    """An argument is outside the operation's domain (e.g. empty input)."""


class EmbeddingParseError(SymgraphError):
    """An embedding text file could not be parsed."""


class SchemaError(SymgraphError):
    """A structured document does not match its schema."""


class ValidationError(SymgraphError):
    """A graph failed structural validation."""


class TrainingError(SymgraphError):
    """Training aborted (non-finite loss or gradient)."""


class ConfigError(SymgraphError):
    """Invalid run configuration."""


def read_text(path, error=SchemaError) -> str:
    """The whole UTF-8 file, newlines translated to ``\\n``; bytes that are
    not UTF-8 raise ``error`` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None
