"""Exception hierarchy for the smx library.

Everything raised on purpose derives from SmxError, so callers can catch
one type at the boundary. Partition construction problems, shape/partition
incompatibilities between operands, and text parsing problems form the
three branches. InvalidArgument, an argument of a type the operation cannot
take, is also a TypeError, and InvalidValue, an argument of the right type but
outside the values the operation accepts, is also a ValueError, so that
existing ``except TypeError`` and ``except ValueError`` code catches them.
"""


class SmxError(Exception):
    """Base class for all smx errors."""


class PartitionError(SmxError):
    """A partition description is malformed."""


class CutOutOfRange(PartitionError):
    def __init__(self, cut, length):
        super().__init__(f"cut {cut!r} out of range [1, {length - 1}] for axis of length {length}")
        self.cut = cut
        self.length = length


class DuplicateCut(PartitionError):
    def __init__(self, cut):
        super().__init__(f"duplicate cut {cut}")
        self.cut = cut


class UnsortedCuts(PartitionError):
    def __init__(self, cuts):
        super().__init__(f"cuts {list(cuts)} are not strictly increasing")
        self.cuts = tuple(cuts)


class InvalidArgument(SmxError, TypeError):
    """An argument has a type the operation cannot take."""


class InvalidValue(SmxError, ValueError):
    """An argument has the right type but a value the operation does not accept."""


class DimensionMismatch(SmxError):
    """Operand dimensions rule the operation out."""

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class BlockIndexOutOfRange(SmxError):
    """A block coordinate falls outside the partition grid."""


class PartitionMismatch(SmxError):
    """Dimensions agree but the partitions do not line up."""

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class ArityMismatch(SmxError):
    """Two unions have different numbers of components."""


class EmptyUnion(SmxError):
    """A union needs at least one component."""


class ParseError(SmxError):
    """Text input is not valid .smx; carries a 1-based position."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class RaggedRows(ParseError):
    """Rows of one component have different entry counts."""


class InconsistentCuts(ParseError):
    """Rows of one component place column cuts differently."""


class EmptyInput(ParseError):
    """No component found in the input."""

    def __init__(self):
        super().__init__("empty input", 1, 1)
