"""Exception hierarchy shared across the library.

Mathematical failures (singularity, missing inverses, structure violations)
are distinguished from usage errors (dimension mismatches, bad files) so the
CLI can map them to stable exit codes.
"""


class TprodError(Exception):
    """Base class for all library errors."""


class DimensionError(TprodError):
    """Operands have incompatible or invalid dimensions."""


class NotBlockCirculant(TprodError):
    """A matrix claimed to be block circulant deviates beyond tolerance."""


class MathError(TprodError):
    """Base class for failures of a mathematical precondition or algorithm.

    ``block_index`` names the Fourier block a per-block operation failed on
    (the lift sets it); the message then leads with that block.
    """

    def __init__(self, message, block_index=None):
        super().__init__(message)
        self.block_index = block_index

    def __str__(self):
        message = super().__str__()
        if self.block_index is None:
            return message
        return f"Fourier block {self.block_index}: {message}"


class PairingViolation(MathError):
    """Fourier blocks do not satisfy the conjugate-pairing relations: the
    one error for an imaginary part an inverse transform would drop."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BlockOpError(MathError):
    """A per-block matrix operation failed; carries the failing block index."""


class ConvergenceError(MathError):
    """An iterative matrix kernel failed to converge."""


class SwapFailure(MathError):
    """Reordering of Schur diagonal blocks failed (ill-conditioned swap)."""


class DefectiveBlock(MathError):
    """Matrix detected as non-diagonalizable with clustered eigenvalues;
    its Jordan structure is not reliably computable in floating point."""


class GroupInverseNotExist(MathError):
    """rank(A^2) < rank(A): the group inverse does not exist.

    ``margin`` reports how close the rank decision was: the gap between the
    decisive singular values and the rank cutoff, relative to the cutoff.
    """

    def __init__(self, message, block_index=None, rank=None, rank_sq=None,
                 margin=None):
        super().__init__(message, block_index)
        self.rank = rank
        self.rank_sq = rank_sq
        self.margin = margin


class Singular(MathError):
    """A tensor (or one of its Fourier blocks) is not invertible."""

    def __init__(self, message, block_index=None, sigma_min=None):
        super().__init__(message, block_index)
        self.sigma_min = sigma_min


class PartitionViolation(MathError):
    """No partition with diagonal blocks of size at most 2 fits the slices,
    or a partition given to a report is not one."""


class ParseError(TprodError):
    """A tensor file is malformed; carries 1-based line/column positions."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column else "")
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


class IoError(TprodError):
    """Reading or writing a tensor file failed at the OS level."""
