"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type when embedding the tools in larger systems.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SpecError(ReproError):
    """An architecture specification is inconsistent or unsupported."""


class OccupancyError(ReproError):
    """A kernel cannot be launched with the requested resources."""


class IsaError(ReproError):
    """An instruction, operand, or program is malformed."""


class AssemblyError(IsaError):
    """Textual assembly could not be parsed."""


class ValidationError(IsaError):
    """A kernel failed static validation."""


class SimulationError(ReproError):
    """The functional simulator hit an unsupported or faulty situation."""


class LaunchError(SimulationError):
    """A kernel launch configuration is invalid."""


class MemoryAccessError(SimulationError):
    """An out-of-bounds or misaligned memory access occurred."""


class DivergenceError(SimulationError):
    """Control flow diverged in a way the simulator does not support."""


class HardwareModelError(ReproError):
    """The hardware timing simulator was configured or used incorrectly."""


class ModelError(ReproError):
    """The performance model received inconsistent inputs."""


class CalibrationError(ModelError):
    """Calibration tables are missing, malformed, or out of range."""
