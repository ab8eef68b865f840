"""Exception hierarchy shared by all toolkit modules."""


class SpectralPatternError(Exception):
    """Base class for every error raised by this package."""


class UsageError(SpectralPatternError):
    """A command-line flag has a value the command cannot use; the message
    names the flag or the setting it gives."""


# -- geometry ---------------------------------------------------------------

class GeometryError(SpectralPatternError):
    pass


class DegeneratePolygon(GeometryError):
    """Polygon has fewer than 3 distinct vertices or (near-)zero area."""


class SelfIntersectingPolygon(GeometryError):
    """Polygon ring is not simple."""


# -- graph construction -----------------------------------------------------

class GraphError(SpectralPatternError):
    group = None  # index of the group whose graph failed, when many are built


class CollinearInput(GraphError):
    """All points lie on one line; triangulation is impossible."""


class DuplicatePoints(GraphError):
    """Two input points coincide within tolerance."""


class DisconnectedInput(GraphError):
    """Edge set does not connect all vertices."""


class IsolatedVertex(GraphError):
    """A vertex with zero degree where a normalized Laplacian is requested."""


# -- numerics ---------------------------------------------------------------

class NumericError(SpectralPatternError):
    pass


class NonConvergence(NumericError):
    """An iterative solver exhausted its iteration budget."""


class DivergedLoss(NumericError):
    """Training produced a non-finite loss or non-finite parameters."""


# -- shape / state contracts ------------------------------------------------

class DimensionMismatch(SpectralPatternError):
    """Operand dimensions do not agree."""


class ShapeMismatch(DimensionMismatch):
    """Parameter and gradient shapes do not agree."""


class StateError(SpectralPatternError):
    """Operation requires state (e.g. forward intermediates) that is absent."""


class InvalidLabel(SpectralPatternError):
    """Class index outside the model's output range, or sample unlabeled."""


# -- datasets ----------------------------------------------------------------

class DataError(SpectralPatternError):
    """Base class for dataset and file-format problems."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(DataError):
    """Malformed NDJSON line or schema violation."""


class InvalidPolygon(DataError):
    """A building ring on this line fails geometric validation."""


class UnknownLabel(DataError):
    """Label value outside the supported set."""


class CoincidentCentroids(DataError):
    """Two buildings of one group share a centroid, so it has no graph."""


class InsufficientSamples(DataError):
    """A class has too few samples to split."""


class EmptySplit(DataError):
    """An operation received an empty dataset split."""


class InfeasiblePacking(DataError):
    """Synthetic generator could not place buildings without overlap."""


class CheckpointError(DataError):
    """Checkpoint file is malformed or fails its checksum."""
