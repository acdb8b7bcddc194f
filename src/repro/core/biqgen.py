"""BiQGen — bi-directional query generation (paper Section IV-B, Fig. 6).

Two frontiers explore the lattice simultaneously: a *forward* queue refines
from the most relaxed root ``q_r`` (converging early to high-diversity
instances) and a *backward* queue relaxes from the most refined bottom
``q_b`` (converging early to high-coverage feasible instances). Both feed
the same Update archive.

The payoff is "sandwich" pruning (Lemma 3): whenever a verified forward
instance ``q`` and backward instance ``q'`` with ``q' ⪰_I q`` agree on a
box coordinate (same δ-box or same f-box), every instance strictly between
them in the refinement preorder is ε-dominated by one of the two and can be
skipped without verification. The paper reports ~60% of EnumQGen's
instances pruned.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Set, Tuple

from repro.core.base import QGenAlgorithm
from repro.core.evaluator import EvaluatedInstance
from repro.core.pareto import box_of
from repro.core.result import GenerationResult, timed
from repro.core.update import EpsilonParetoArchive
from repro.query.instance import QueryInstance
from repro.query.refinement import refines, strictly_refines
from repro.runtime.budget import ExecutionInterrupt


class _SandwichBounds:
    """The SBounds set: (lower, upper) refinement pairs enabling pruning.

    ``add`` widens an existing pair when the new pair contains it (the
    paper's replacement rule); ``prunes`` answers the SPrune test.
    """

    def __init__(self) -> None:
        self._pairs: List[Tuple[QueryInstance, QueryInstance]] = []

    def __len__(self) -> int:
        return len(self._pairs)

    def add(self, lower: QueryInstance, upper: QueryInstance) -> None:
        """Add a (lower, upper) pair, skipping pairs an existing one covers.

        The paper additionally *widens* stored pairs when the new pair
        extends one; a widened pair is only a valid Lemma 3 sandwich when
        its endpoints themselves satisfy the box condition, which the
        widened combination need not — we keep exactly the pairs proven by
        Lemma 3 and accept a slightly larger SBounds instead.
        """
        for lo, hi in self._pairs:
            # Contained pair: the existing sandwich already prunes at least
            # as much as the new one would.
            if refines(lower, lo) and refines(hi, upper):
                return
        self._pairs.append((lower, upper))

    def prunes(self, instance: QueryInstance) -> bool:
        """SPrune: is ``instance`` strictly inside some sandwich pair?"""
        for lo, hi in self._pairs:
            if strictly_refines(instance, lo) and strictly_refines(hi, instance):
                return True
        return False


class BiQGen(QGenAlgorithm):
    """Bi-directional generation with sandwich pruning."""

    name = "BiQGen"

    def run(self) -> GenerationResult:
        self._begin_run()
        stats = self._base_stats()
        epsilon = self.config.epsilon
        archive = EpsilonParetoArchive(epsilon)
        bounds = _SandwichBounds()
        visited: Set[tuple] = set()
        forward_feasible: List[EvaluatedInstance] = []
        backward_feasible: List[EvaluatedInstance] = []
        # Infeasibility witnesses (Lemma 2): an instance refining a known
        # infeasible instance is itself infeasible, so either frontier can
        # skip its verification outright. This is what lets the backward
        # frontier cross the infeasible bottom region cheaply. Only the
        # minimal witnesses are kept (an antichain under refinement).
        self._infeasible: List[QueryInstance] = []

        with timed(stats), self.metrics.trace(f"{self.metrics_namespace}.run"):
            forward: Deque[Tuple[QueryInstance, Optional[QueryInstance]]] = deque()
            backward: Deque[QueryInstance] = deque()
            self._root = self.lattice.root()
            forward.append((self._root, None))
            backward.append(self.lattice.bottom())
            self._inc("generated", 2)

            try:
                while forward or backward:
                    self.runtime.checkpoint()
                    if forward:
                        self._forward_step(
                            forward, visited, bounds, archive, stats,
                            forward_feasible, backward_feasible, epsilon,
                        )
                    if backward:
                        self._backward_step(
                            backward, visited, bounds, archive, stats,
                            forward_feasible, backward_feasible, epsilon,
                        )
            except ExecutionInterrupt:
                # Both frontiers halt; the shared archive is a valid
                # ε-Pareto set of everything verified so far.
                pass
            self.metrics.set("gen.biqgen.sandwich_bounds", len(bounds))

        stats = self._finalize_stats(stats)
        return GenerationResult(
            algorithm=self.name,
            instances=archive.instances(),
            epsilon=epsilon,
            stats=stats,
            trace=self._final_trace(archive.instances()),
        )

    # ------------------------------------------------------------------ #
    # Frontier steps
    # ------------------------------------------------------------------ #

    def _forward_step(
        self,
        forward: Deque[Tuple[QueryInstance, Optional[QueryInstance]]],
        visited: Set[tuple],
        bounds: _SandwichBounds,
        archive: EpsilonParetoArchive,
        stats,
        forward_feasible: List[EvaluatedInstance],
        backward_feasible: List[EvaluatedInstance],
        epsilon: float,
    ) -> None:
        instance, parent = forward.popleft()
        key = instance.instantiation.key
        if key in visited:
            self._inc("dedup_skipped")
            return
        visited.add(key)
        if bounds.prunes(instance):
            # Sandwiched instances are feasible (the upper endpoint is) and
            # ε-dominated by an endpoint already in the archive: skip the
            # verification but keep traversing so refinements outside the
            # sandwich stay reachable.
            self._inc("pruned")
            self._inc("pruned_sandwich")
            for _, child in self.lattice.refine_children(instance, None):
                if child.instantiation.key not in visited:
                    self._inc("generated")
                    forward.append((child, instance))
            return
        if self._known_infeasible(instance):
            # A relaxation of this instance already failed feasibility;
            # refining it further cannot help (Lemma 2) — drop the subtree.
            self._inc("pruned")
            self._inc("pruned_witness")
            return
        evaluated = self.evaluator.evaluate(instance, parent)
        self._maybe_trace(archive.instances())
        if not evaluated.feasible:
            # Lemma 2: refinements of an infeasible instance stay infeasible.
            self._inc("pruned")
            self._inc("pruned_infeasible")
            self._record_infeasible(instance)
            return
        self._inc("feasible")
        self._offer(archive, evaluated)
        forward_feasible.append(evaluated)
        self._register_pairs(evaluated, backward_feasible, bounds, epsilon, forward=True)
        for _, child in self.lattice.refine_children(instance, evaluated):
            if child.instantiation.key not in visited:
                self._inc("generated")
                forward.append((child, instance))

    def _backward_step(
        self,
        backward: Deque[QueryInstance],
        visited: Set[tuple],
        bounds: _SandwichBounds,
        archive: EpsilonParetoArchive,
        stats,
        forward_feasible: List[EvaluatedInstance],
        backward_feasible: List[EvaluatedInstance],
        epsilon: float,
    ) -> None:
        instance = backward.popleft()
        key = instance.instantiation.key
        if key in visited:
            self._inc("dedup_skipped")
            return
        visited.add(key)
        if bounds.prunes(instance):
            self._inc("pruned")
            self._inc("pruned_sandwich")
            for _, child in self.lattice.relax_children(instance):
                if child.instantiation.key not in visited:
                    self._inc("generated")
                    backward.append(child)
            return
        if self._known_infeasible(instance):
            # Skip verification, but keep relaxing: relaxations may leave
            # the infeasible region.
            self._inc("pruned")
            self._inc("pruned_witness")
        else:
            # Every instance refines the root, so the root's verified
            # candidate map soundly bounds any backward verification
            # (incVerify seeding).
            evaluated = self.evaluator.evaluate(instance, self._root)
            self._maybe_trace(archive.instances())
            if evaluated.feasible:
                self._inc("feasible")
                self._offer(archive, evaluated)
                backward_feasible.append(evaluated)
                self._register_pairs(
                    evaluated, forward_feasible, bounds, epsilon, forward=False
                )
            else:
                # Not counted as "pruned": the instance *was* verified.
                # The sub-counter still records the infeasibility witness.
                self._inc("pruned_infeasible")
                self._record_infeasible(instance)
        # Relaxation can restore feasibility, so the backward frontier keeps
        # expanding from infeasible instances as well.
        for _, child in self.lattice.relax_children(instance):
            if child.instantiation.key not in visited:
                self._inc("generated")
                backward.append(child)

    def _known_infeasible(self, instance: QueryInstance) -> bool:
        """True iff ``instance`` refines a recorded infeasible instance."""
        return any(refines(instance, witness) for witness in self._infeasible)

    def _record_infeasible(self, instance: QueryInstance) -> None:
        """Record an infeasibility witness; the witnesses stay an antichain.

        Stored witnesses that refine ``instance`` are dropped: whatever
        refines one of them also refines ``instance`` (``⪰`` is
        transitive), so :meth:`_known_infeasible` answers as before for
        every instance.
        """
        self._infeasible = [w for w in self._infeasible if not refines(w, instance)]
        self._infeasible.append(instance)

    def _register_pairs(
        self,
        evaluated: EvaluatedInstance,
        counterpart_pool: List[EvaluatedInstance],
        bounds: _SandwichBounds,
        epsilon: float,
        forward: bool,
    ) -> None:
        """Record sandwich pairs between ``evaluated`` and the other frontier.

        Lemma 3's condition: the backward instance refines the forward one
        and they share the δ-box or the f-box.
        """
        my_box = box_of(evaluated, epsilon)
        for other in counterpart_pool:
            other_box = box_of(other, epsilon)
            if my_box.delta != other_box.delta and my_box.coverage != other_box.coverage:
                continue
            if forward:
                lower, upper = evaluated.instance, other.instance
            else:
                lower, upper = other.instance, evaluated.instance
            if strictly_refines(upper, lower):
                bounds.add(lower, upper)
