"""Exception taxonomy for the simulator.

Protocol misuse and illegal requests raise; security outcomes that the
design expects (translation faults, rejected verdicts, blocked attacks) are
returned as values instead.
"""


class SimError(Exception):
    """Base class for all simulator errors."""


class AlignmentError(SimError):
    pass


class DoubleMapError(SimError):
    pass


class NotMappedError(SimError):
    pass


class IntegrityError(SimError):
    pass


class ResourceBusy(SimError):
    pass


class TooManySandboxes(SimError):
    pass


class QuotaExceeded(SimError):
    pass


class LastCoreError(SimError):
    pass


class NotOwner(SimError):
    pass


class DeviceBusy(SimError):
    pass


class BadState(SimError):
    pass


class OutOfMemory(SimError):
    pass


class NoAdjacentSpace(SimError):
    pass


class DuplicateApp(SimError):
    pass


class UnknownApp(SimError):
    pass


class UnsupportedDevice(SimError):
    pass


class NoSuchSandbox(SimError):
    pass


class BudgetExceeded(SimError):
    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ParseError(SimError):
    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class ValidationError(SimError):
    pass


class ConfigError(ValidationError):
    """A machine configuration that is invalid or lacks what is asked of it."""


class UnknownSuite(SimError):
    pass
