"""Section 7: multilevel atomicity in the nested-transaction model.

Multilevel-atomic executions can be described by *nested action trees*
whose level-``i`` nodes group steps of ``pi(i)``-equivalent transactions
carried to level-``i-1`` breakpoints.  :func:`encode_action_tree`
constructs the tree; :func:`verify_action_tree` checks the structural
property the paper states.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ActionNode": "action_tree",
    "StepLeaf": "action_tree",
    "verify_action_tree": "action_tree",
    "encode_action_tree": "encoding",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
