"""Exception types shared across the package."""


class SetDecompError(Exception):
    """Base class for all errors raised by this package."""


class UnitMismatch(SetDecompError):
    """Two bindings of the same variable carry different unit strings."""

    def __init__(self, name: str, unit_a: str, unit_b: str):
        super().__init__(f"unit mismatch for '{name}': {unit_a!r} vs {unit_b!r}")
        self.name = name
        self.units = (unit_a, unit_b)


class EmptyRange(SetDecompError):
    """An intersection came out empty, signalling conflicting initial ranges."""

    def __init__(self, name: str, detail: str = ""):
        msg = f"empty range for '{name}'"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.name = name


class NotFound(SetDecompError, KeyError):
    """A variable is absent from the range map it was restricted against."""

    def __init__(self, name: str):
        super().__init__(f"variable '{name}' not found")
        self.name = name


class NotComposable(SetDecompError):
    """Two functional requirements cannot be composed."""

    def __init__(self, producer: str, consumer: str, var: str | None, detail: str = ""):
        msg = f"'{producer}' does not compose into '{consumer}'"
        if var:
            msg += f" on variable '{var}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.producer = producer
        self.consumer = consumer
        self.var = var


class CoverageViolation(SetDecompError):
    """The architecture does not define every top-level variable or range."""

    def __init__(self, missing, detail: str = ""):
        names = ", ".join(sorted(missing)) if not isinstance(missing, str) else missing
        msg = f"coverage violation: {names}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.missing = missing


class ProducerConflict(SetDecompError):
    """A variable is produced (output) by more than one sub-function."""

    def __init__(self, var: str, producers):
        super().__init__(f"variable '{var}' produced by multiple sub-functions: "
                         f"{', '.join(sorted(producers))}")
        self.var = var
        self.producers = tuple(producers)


class AlgebraicCycle(SetDecompError):
    """The algebraic part of the architecture contains a dependency cycle."""

    def __init__(self, cycle):
        super().__init__(f"algebraic cycle through: {', '.join(cycle)}")
        self.cycle = tuple(cycle)


class NonFinite(SetDecompError):
    """A simulated value overflowed or became NaN."""

    def __init__(self, var: str, t: float):
        super().__init__(f"non-finite value for '{var}' at t={t:g}")
        self.var = var
        self.t = t


class DomainError(SetDecompError):
    """Expression evaluation hit an undefined point (e.g. division by an
    interval containing zero)."""


class Infeasible(SetDecompError):
    """No admissible controllable box (or bracket point) exists."""


class InfeasibleBrackets(Infeasible):
    """A bracket violates the l1 <= l2 <= u2 <= u1 ordering."""


class PostconditionFailure(SetDecompError):
    """An assembled result violated a law it is guaranteed to satisfy."""

    def __init__(self, law: str, witness):
        super().__init__(f"postcondition '{law}' violated: {witness}")
        self.law = law
        self.witness = witness


class ParseError(SetDecompError):
    """An input file could not be parsed."""


class ValidationError(SetDecompError):
    """An input file parsed but failed schema or semantic validation."""
