"""Exception hierarchy shared by all pipeline stages, and the helper that locates an error."""

from contextlib import contextmanager
from typing import Iterator


class PipelineError(Exception):
    """Base class for data and contract errors (CLI exit code 2)."""


class UsageError(Exception):
    """Bad command-line invocation (CLI exit code 1)."""


@contextmanager
def located(where: object, kinds: type | tuple[type, ...] = PipelineError) -> Iterator[None]:
    """Re-raise a ``kinds`` error from the block as the same type with ``where: ``
    in front, unless its message already starts with ``where``."""
    try:
        yield
    except kinds as exc:
        if str(exc).startswith(str(where)):
            raise
        raise type(exc)(f"{where}: {exc}") from None


class BadParameter(PipelineError, ValueError):
    """A parameter out of its range; still a ValueError to library callers."""


# corpus
class DuplicateVerseId(PipelineError):
    pass


class MalformedLine(PipelineError):
    pass


class EmptyFile(PipelineError):
    pass


class BadRatios(PipelineError):
    pass


class UnknownLanguage(PipelineError):
    pass


class DuplicateLanguage(PipelineError):
    pass


# labeling
class EmptySplit(PipelineError):
    pass


class UnknownVerse(PipelineError):
    pass


# subword
class EmptyCorpus(PipelineError):
    pass


class DanglingContinuation(PipelineError):
    pass


# alignment
class EmptyBitext(PipelineError):
    pass


class EmptySentence(PipelineError):
    pass


# lexicon
class EmptyResult(PipelineError):
    pass


class MissingAligner(PipelineError):
    pass


class MissingFrequency(PipelineError):
    pass


class MissingSelectionFile(PipelineError):
    pass


# netag
class UnknownPlaceholder(PipelineError):
    pass


# harness
class BadFraction(PipelineError):
    pass


class NonMonotoneEpoch(PipelineError):
    pass


class DegenerateInput(PipelineError):
    pass


class UnknownProfile(PipelineError):
    pass


# evaluation
class LengthMismatch(PipelineError):
    pass


class UnresolvedJudgments(PipelineError):
    pass


# cli / manifest
class CycleDetected(PipelineError):
    pass


class StageFailed(PipelineError):
    pass
