"""Exact combinatorial models of cut-and-paste invariants, SKK classes,
and invertible two-dimensional TQFTs."""

__version__ = "0.1.0"


class InputError(ValueError):
    """The request's own input is at fault: a malformed document, word,
    script or argument, or a well-formed one that the operation rejects.

    Every exception the user can cause derives from this class, and
    `skkinv.cli.run` turns exactly these into exit code 2. Any other
    exception is a fault of the program.
    """
