"""The refinement preorder on instantiations / instances (paper Section IV).

``I'`` *refines* ``I`` (written ``I' ⪰ I``) iff at every variable the
binding of ``I'`` is at least as selective as that of ``I``:

* ordered literal bounds move in the operator's refinement direction;
* edge variables move from ``0`` (absent) to ``1`` (present);
* the wildcard is refined by every binding (clause (3) of the definition).

Lemma 2 of the paper: refinement is a preorder, and refinement shrinks the
match set, so diversity is antitone and coverage error improves (``f`` is
monotone) along refinement chains of feasible instances. These monotonicity
facts power the pruning of RfQGen and the sandwich pruning of BiQGen; they
are property-tested in ``tests/property/test_refinement_properties.py``.
"""

from __future__ import annotations

from typing import Union

from repro.query.instance import QueryInstance
from repro.query.instantiation import Instantiation

Refinable = Union[Instantiation, QueryInstance]


def _as_instantiation(obj: Refinable) -> Instantiation:
    return obj.instantiation if isinstance(obj, QueryInstance) else obj


def refines_at(refined: Refinable, base: Refinable, variable: str) -> bool:
    """True iff ``refined`` refines ``base`` at one variable (``I' ⪰_x I``)."""
    refined_inst = _as_instantiation(refined)
    base_inst = _as_instantiation(base)
    var = refined_inst.template.variable(variable)
    return var.refines_value(refined_inst[variable], base_inst[variable])


def refines(refined: Refinable, base: Refinable) -> bool:
    """True iff ``refined ⪰ base`` — refinement at every variable.

    Both arguments must instantiate the same template.
    """
    refined_inst = _as_instantiation(refined)
    base_inst = _as_instantiation(base)
    if refined_inst.template is not base_inst.template:
        return False
    new, old = refined_inst._values, base_inst._values
    for name, refines_value in refined_inst.template._refinement_checks:
        if not refines_value(new[name], old[name]):
            return False
    return True


def strictly_refines(refined: Refinable, base: Refinable) -> bool:
    """``refined ⪰ base`` and the bindings differ somewhere."""
    refined_inst = _as_instantiation(refined)
    base_inst = _as_instantiation(base)
    return refines(refined_inst, base_inst) and refined_inst.key != base_inst.key


def compare_instantiations(left: Refinable, right: Refinable) -> int:
    """Three-way comparison under refinement.

    Returns ``+1`` if ``left`` strictly refines ``right``, ``-1`` if
    ``right`` strictly refines ``left``, ``0`` if equal or incomparable.
    The preorder is not total, so ``0`` conflates "equal" and
    "incomparable"; callers needing the distinction compare keys.
    """
    left_refines = refines(left, right)
    right_refines = refines(right, left)
    if left_refines and not right_refines:
        return 1
    if right_refines and not left_refines:
        return -1
    return 0


def between(candidate: Refinable, lower: Refinable, upper: Refinable) -> bool:
    """True iff ``lower ≺ candidate ≺ upper`` strictly in the preorder.

    This is the "sandwich" test of BiQGen (Lemma 3): any instance strictly
    between a matched forward/backward pair can be pruned.
    """
    return strictly_refines(candidate, lower) and strictly_refines(upper, candidate)
