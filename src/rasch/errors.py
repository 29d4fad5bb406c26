"""Exception hierarchy shared across the estimation pipeline."""

from __future__ import annotations


class EstimationError(Exception):
    """Base class for data or estimation failures (CLI exit code 3)."""


class DataFormatError(EstimationError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DisconnectedGraphError(EstimationError):
    """Comparison graph is not connected, so the MLE is not identified.

    ``components`` holds the vertex partition (list of item-id lists);
    ``split_index`` is set when the failure happened inside a multi-split run,
    and ``splits_without_mle`` then counts the splits of that run without an
    MLE, this one included.
    """

    def __init__(self, components, split_index: int | None = None,
                 splits_without_mle: int | None = None):
        self.components = [sorted(c) for c in components]
        self.split_index = split_index
        self.splits_without_mle = splits_without_mle
        where = "" if split_index is None else f" (split {split_index})"
        sizes = sorted((len(c) for c in self.components), reverse=True)
        super().__init__(
            f"comparison graph is disconnected{where}: "
            f"{len(self.components)} components of sizes {sizes}"
        )


class DivergenceError(EstimationError):
    """The comparison graph is connected but the MLE does not exist.

    The MLE exists exactly when the directed graph with an edge ``i -> j``
    wherever item ``i`` beat item ``j`` is strongly connected.  Otherwise
    some set of items won every comparison with the rest, and the fitted
    parameters would drift apart without end.  ``items`` holds one such set;
    ``split_index`` is set when the failure happened inside a multi-split run,
    and ``splits_without_mle`` then counts the splits of that run without an
    MLE, this one included.
    """

    def __init__(self, items, split_index: int | None = None,
                 splits_without_mle: int | None = None):
        self.items = sorted(items)
        self.split_index = split_index
        self.splits_without_mle = splits_without_mle
        where = "" if split_index is None else f" (split {split_index})"
        super().__init__(
            f"MLE does not exist{where}: items {self.items} won every "
            f"comparison with the other items"
        )


class ConvergenceError(EstimationError):
    """Newton reached ``max_iter`` with the gradient still above ``tol``.

    Estimators raise it rather than use (or average) such a solve;
    ``split_index`` names the split for the split-based methods.
    """

    def __init__(self, grad_inf_norm: float, iterations: int, split_index: int | None = None):
        self.grad_inf_norm = grad_inf_norm
        self.iterations = iterations
        self.split_index = split_index
        where = "" if split_index is None else f" (split {split_index})"
        super().__init__(
            f"solver did not converge{where}: gradient sup-norm {grad_inf_norm:.3g} "
            f"after {iterations} iterations"
        )
