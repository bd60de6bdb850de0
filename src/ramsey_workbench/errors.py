"""Exception types shared across the engine."""


class WorkbenchError(Exception):
    """Base class for all engine errors."""


class SignatureMismatch(WorkbenchError):
    """Structures with different signatures were combined."""


class MissingIsoData(WorkbenchError):
    """Skeletonization needs attached structures or explicit isomorphism data."""


class ShapeMismatch(WorkbenchError):
    """Sequences or transformations with incompatible shapes were combined."""


class TruncationOverflow(WorkbenchError):
    """A level map points outside the truncated index range."""


class ArrowDoesNotHold(WorkbenchError):
    """A construction required an arrow instance that fails."""


class FactorSearchFailed(WorkbenchError):
    """No factorization witness exists; signals a violated precondition."""


class BudgetExceeded(WorkbenchError):
    """An exhaustive enumeration would exceed the configured budget."""


class ExpansionOverflow(WorkbenchError):
    """A coloring-family fiber is larger than the configured budget."""


class CorruptCertificate(WorkbenchError):
    """A replayed certificate is malformed or fails re-verification."""


REPR_CAP = 40   # characters of the offending value an error message shows


def check_type(value, kind: type, what: str):
    """value if its JSON type is kind; type() so that true is not the int 1.

    Loaders call this on every field they read, so a malformed document
    raises WorkbenchError at load rather than TypeError deep in a search."""
    if type(value) is not kind:
        shown = repr(value)
        if len(shown) > REPR_CAP:
            shown = shown[:REPR_CAP - 3] + "..."
        raise WorkbenchError(f"{what} must be {kind.__name__}, "
                             f"not {type(value).__name__} {shown}")
    return value


def check_field(doc: dict, name: str, kind: type, what: str):
    """check_type(doc[name], kind, what), naming the field if doc lacks it."""
    if name not in doc:
        raise WorkbenchError(f"no {name!r} field for the {what}")
    return check_type(doc[name], kind, what)
