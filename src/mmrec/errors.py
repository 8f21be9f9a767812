"""Exception types raised across the library."""

from __future__ import annotations


class MmrecError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- data input

class MalformedHeader(MmrecError):
    """Interaction file header is missing a required column."""


class MalformedLine(MmrecError):
    """Interaction file line has a wrong field count or a bad numeric field."""

    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if message else f"line {line_no}")


class EmptyDataset(MmrecError):
    """No interactions survive preprocessing."""


class MissingTimestamps(MmrecError):
    """Temporal split requested but some records carry no timestamp."""


class MalformedDataset(MmrecError):
    """Dataset directory file has a bad line or disagrees with its meta."""


# ------------------------------------------------------------ feature files

class BadMagic(MmrecError):
    """Feature file does not start with the expected magic bytes."""


class DimensionMismatch(MmrecError):
    """Array shapes that do not fit together: an MMF header that disagrees
    with its file or ID file, an ID file that is not UTF-8, modality tables
    of unequal size for fusion, or fused features of another width than a
    model was built for."""


class NonFiniteValue(MmrecError):
    """Feature matrix contains NaN or Inf."""

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"non-finite value at ({row}, {col})")


class AllMissing(MmrecError):
    """No retained item has features in this modality."""


class EmptyList(MmrecError):
    """Fusion called with no modality tables."""


# ------------------------------------------------------------------- models

class MissingFeatures(MmrecError):
    """Multimodal model invoked without fused item features."""


class MissingAdjacency(MmrecError):
    """Graph model invoked without a training adjacency."""


class EmptyBatch(MmrecError):
    """Loss requested on an empty triple batch."""


class IndexOutOfRange(MmrecError):
    """A user or item index falls outside the dataset."""


class MalformedCheckpoint(MmrecError):
    """Checkpoint meta is incomplete or disagrees with the stored tensors."""


# ------------------------------------------------------------------ trainer

class NoNegativeAvailable(MmrecError):
    """User interacts with every item, so no negative can be sampled."""


class NonFiniteGradient(MmrecError):
    """Optimizer received a gradient with NaN or Inf entries."""


# --------------------------------------------------------------- evaluation

class EmptySplit(MmrecError):
    """No user has ground truth in the requested split."""


class DatasetMismatch(MmrecError):
    """Model was built for another number of users or items than the dataset has."""


# ------------------------------------------------------------ configuration

class ConfigError(MmrecError):
    """Base class for configuration-file problems."""


class ParseError(ConfigError):
    """Configuration line does not match the grammar."""

    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if message else f"line {line_no}")


class UnknownKey(ConfigError):
    """Configuration key is not recognised."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(name)


class TypeMismatch(ConfigError):
    """Configuration value has the wrong type for its key."""

    def __init__(self, key: str, message: str = ""):
        self.key = key
        super().__init__(f"{key}: {message}" if message else key)
