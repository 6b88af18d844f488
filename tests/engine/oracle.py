"""The closure window's oracle: recompute every closure, maintain nothing.

:class:`FullClosureWindow` answers each closure query with the batch
:func:`~repro.core.coherence.coherent_closure` over the window's base
dependency edges (plus its prune shortcuts): no live engine, no cached
verdicts.  It keeps :class:`~repro.engine.ClosureWindow`'s bookkeeping,
lifecycle and pruning, and overrides only the two closure entry points,
``observe`` and ``closure``.  The window must agree with it verdict for
verdict (and, where acyclic, pair for pair); experiment E10 times the
two against each other.
"""

from __future__ import annotations

from repro.core.coherence import ClosureResult, coherent_closure
from repro.core.interleaving import InterleavingSpec
from repro.core.segmentation import BreakpointDescription
from repro.engine import ClosureWindow
from repro.model import StepId, StepKind

__all__ = ["FullClosureWindow", "with_full_window"]


class FullClosureWindow(ClosureWindow):
    """A :class:`~repro.engine.ClosureWindow` that recomputes the closure
    from base edges on every call."""

    def _spec(
        self, extra: tuple[str, StepId] | None = None
    ) -> InterleavingSpec | None:
        steps = {n: list(s) for n, s in self._steps.items() if s}
        cuts = {n: dict(self._cuts.get(n, {})) for n in steps}
        if extra is not None:
            name, step = extra
            steps.setdefault(name, []).append(step)
            cuts.setdefault(name, dict(self._cuts.get(name, {})))
        if not steps:
            return None
        descriptions = {
            n: BreakpointDescription.from_cut_levels(
                s,
                self.k,
                {
                    g: lv
                    for g, lv in cuts[n].items()
                    # Levels beyond the nest depth are vacuous.
                    if g < len(s) - 1 and lv <= self.k
                },
            )
            for n, s in steps.items()
        }
        return InterleavingSpec(self.nest.restrict(steps), descriptions)

    def closure(
        self, extra: tuple[str, StepId, str, StepKind] | None = None
    ) -> ClosureResult | None:
        order = list(self._order)
        extra_key = None
        if extra is not None:
            name, step, entity, kind = extra
            self._access_of[step] = (entity, kind)
            order.append(step)
            extra_key = (name, step)
        spec = self._spec(extra_key)
        if spec is None:
            if extra is not None:
                del self._access_of[extra[1]]
            return None
        seed = set(self._entity_edges(order)) | self._shortcut_edges
        result = coherent_closure(spec, seed)
        assert result.index is not None
        self.closure_calls += 1
        if extra is not None:
            del self._access_of[extra[1]]
        return result

    def observe(self, name, step, entity, kind, cut_levels) -> ClosureResult:
        self._steps.setdefault(name, []).append(step)
        self._cuts[name] = dict(cut_levels)
        self._access_of[step] = (entity, kind)
        self._order.append(step)
        result = self.closure()
        assert result is not None
        return result


def with_full_window(scheduler):
    """``scheduler`` (not yet attached to an engine) with its closure
    window replaced by a :class:`FullClosureWindow` of the same
    configuration."""
    window = scheduler.window
    scheduler.window = FullClosureWindow(
        window.nest, prune_interval=window.prune_interval
    )
    return scheduler
