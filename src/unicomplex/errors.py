"""Exception types shared across the library."""


class InputError(ValueError):
    """Malformed or inconsistent input (dimension mismatch, bad simplex, ...)."""


class ResourceLimitError(RuntimeError):
    """A resource limit was reached: the one simplex budget
    (`scomplex.SIMPLEX_BUDGET`, or `--budget` on the CLI), which the
    builders and the facet-list reader enforce while a complex is made, or
    one of the fixed caps of the Buchstaber searches."""


class AcyclicityError(RuntimeError):
    """A matching expected to be acyclic contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = cycle
        super().__init__(f"matching is not acyclic; witness cycle of length {len(cycle)}")
