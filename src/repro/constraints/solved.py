"""Solved-form constraints for one variable (paper §3, display (2)).

The triangular form's ``C_i`` constrains ``x_i`` by the *preceding*
variables only:

    s(x_1..x_{i-1})  ⊆  x_i  ⊆  t(x_1..x_{i-1})          (range part)
    ⋀_j  r_j   with   r_j:  (x_i ∧ p_j ≠ 0) ∨ (¬x_i ∧ q_j ≠ 0)

* The range part comes from **Schröder's theorem (Theorem 10)**:
  ``f = 0  ⟺  f[x←0] ⊆ x ⊆ ¬f[x←1]``.
* Each disequation comes from **Boole's expansion (Theorem 11)**:
  ``g = (x ∧ g[x←1]) ∨ (¬x ∧ g[x←0])``, so ``g ≠ 0`` iff
  ``x ∧ g[x←1] ≠ 0`` or ``¬x ∧ g[x←0] ≠ 0``.

In the paper's containment notation, ``x∧p ≠ 0`` is ``x ⊄ ¬p`` and
``¬x∧q ≠ 0`` is ``q ⊄ x``; we carry the pair ``(p, q)`` directly.

Since ``s``, ``t``, ``p_j`` and ``q_j`` mention only earlier variables,
checking ``C_i`` splits in two: a :class:`SolvedPrefix` holds their
values for one binding of ``x_1..x_{i-1}`` (each evaluated on first use),
and :meth:`SolvedConstraint.holds` compares each candidate ``x_i``
against it.  An executor that extends one parent binding by many
candidates prepares the prefix once and passes it to every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Mapping, Optional, Tuple

from ..boolean.printer import to_str
from ..boolean.semantics import evaluate
from ..boolean.simplify import simplify, simplify_under
from ..boolean.syntax import FALSE, Formula, TRUE, conj, neg
from .system import EquationalSystem


@dataclass(frozen=True)
class Disequation:
    """``(x ∧ p ≠ 0) ∨ (¬x ∧ q ≠ 0)`` for the solved variable ``x``.

    ``p`` is the coefficient of ``x`` (``g[x←1]``) and ``q`` the
    coefficient of ``¬x`` (``g[x←0]``) in Boole's expansion of the
    original disequation body ``g``.
    """

    p: Formula
    q: Formula

    def body(self, x: str) -> Formula:
        """Reconstruct ``g`` = ``(x∧p) ∨ (¬x∧q)`` for variable name ``x``."""
        from ..boolean.syntax import Var, disj

        v = Var(x)
        return disj(conj(v, self.p), conj(neg(v), self.q))

    def render(self, x: str) -> str:
        """Human-readable rendering."""
        parts = []
        if self.p != FALSE:
            parts.append(f"{x} & ({to_str(self.p)}) != 0")
        if self.q != FALSE:
            parts.append(f"~{x} & ({to_str(self.q)}) != 0")
        if not parts:
            return "false"
        return "  or  ".join(parts)


@dataclass(frozen=True)
class SolvedConstraint:
    """The solved form ``C_i`` for one variable.

    Attributes
    ----------
    variable:
        The solved variable ``x_i``.
    lower:
        ``s`` with ``s ⊆ x_i`` (from Schröder; ``0`` when vacuous).
    upper:
        ``t`` with ``x_i ⊆ t`` (``1`` when vacuous).
    disequations:
        The ``r_j`` pairs.
    """

    variable: str
    lower: Formula
    upper: Formula
    disequations: Tuple[Disequation, ...] = ()

    def earlier_variables(self) -> FrozenSet[str]:
        """Variables other than the solved one (must all precede it)."""
        out = set(self.lower.variables()) | set(self.upper.variables())
        for r in self.disequations:
            out |= r.p.variables() | r.q.variables()
        out.discard(self.variable)
        return frozenset(out)

    def is_range_trivial(self) -> bool:
        """``True`` when the range part is ``0 ⊆ x ⊆ 1``."""
        return self.lower == FALSE and self.upper == TRUE

    def prepare(
        self, algebra, env: Mapping[str, object]
    ) -> "SolvedPrefix":
        """The per-parent part of ``C_i`` over ``env``'s binding of the
        earlier variables (and constants); see :class:`SolvedPrefix`."""
        return SolvedPrefix(self, algebra, env)

    def holds(
        self,
        algebra,
        value,
        env: Optional[Mapping[str, object]] = None,
        prefix: Optional["SolvedPrefix"] = None,
    ) -> bool:
        """Check ``C_i`` exactly with ``value`` for the solved variable.

        Pass either ``env``, which must bind every earlier variable (and
        any constants), or a ``prefix`` prepared from such an ``env`` by
        :meth:`prepare` for this constraint and ``algebra``.  The checks
        run in the paper's order — lower bound, upper bound, then each
        disequation's ``x∧p``, then its ``¬x∧q`` — and stop at the first
        that decides; a vacuous ``0 ⊆ x`` or ``x ⊆ 1`` is skipped.
        """
        if prefix is None:
            prefix = self.prepare(algebra, env)
        at = prefix.value
        if prefix.check_lower and not algebra.le(at(0), value):
            return False
        if prefix.check_upper and not algebra.le(value, at(1)):
            return False
        for j in range(2, len(prefix.formulas), 2):
            if not (
                algebra.overlaps(value, at(j))
                or algebra.overlaps_complement(value, at(j + 1))
            ):
                return False
        return True

    def render(self) -> str:
        """Multi-line human-readable rendering, paper style."""
        x = self.variable
        lines = [f"{to_str(self.lower)} <= {x} <= {to_str(self.upper)}"]
        lines += [r.render(x) for r in self.disequations]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


_UNSET = object()


class SolvedPrefix:
    """``C_i``'s formulas evaluated over one binding of the earlier
    variables: ``lower``, ``upper``, then ``p_j``, ``q_j`` per
    disequation (the order of :attr:`formulas`).

    Each value is computed on first use and kept, so the checks of the
    candidates sharing this binding evaluate each formula at most once
    between them, and a formula no check reaches is never evaluated.  A
    formula naming a variable ``env`` lacks raises ``KeyError`` from the
    check that first needs it, every time (nothing is kept on failure).
    The prefix belongs to the caller that prepared it: share it only
    among checks with the same ``env`` values.
    """

    __slots__ = (
        "algebra",
        "env",
        "formulas",
        "check_lower",
        "check_upper",
        "_values",
    )

    def __init__(
        self, constraint: SolvedConstraint, algebra, env: Mapping[str, object]
    ) -> None:
        self.algebra = algebra
        self.env = env
        formulas = [constraint.lower, constraint.upper]
        for r in constraint.disequations:
            formulas += (r.p, r.q)
        self.formulas: Tuple[Formula, ...] = tuple(formulas)
        self.check_lower = constraint.lower != FALSE
        self.check_upper = constraint.upper != TRUE
        self._values: List[object] = [_UNSET] * len(formulas)

    def value(self, i: int):
        """The value of ``formulas[i]`` under ``env`` (memoised)."""
        v = self._values[i]
        if v is _UNSET:
            v = self._values[i] = evaluate(
                self.formulas[i], self.algebra, self.env
            )
        return v


def solve_for(
    system: EquationalSystem,
    x: str,
    simplify_formulas: bool = True,
    care: Optional[Formula] = None,
) -> Tuple[SolvedConstraint, List[Formula]]:
    """Rewrite a system into solved form for variable ``x``.

    Applies Schröder to the equation and Boole's expansion to every
    disequation mentioning ``x``.  Returns the :class:`SolvedConstraint`
    together with the disequations *not* mentioning ``x`` (they belong to
    lower levels of the triangle and are handled by the caller).

    ``care`` optionally supplies a ground hypothesis (the residue ``S_0``
    of Algorithm 1, as the formula ``residue = 0`` i.e. care set
    ``¬residue``); formulas are then displayed/simplified modulo it,
    reproducing the paper's hand-simplified Section 2 presentation.
    """

    def clean(f: Formula) -> Formula:
        if not simplify_formulas:
            return f
        if care is not None:
            return simplify_under(f, care)
        return simplify(f)

    lower_raw, upper_neg = system.equation.cofactors(x)
    lower = clean(lower_raw)
    upper = clean(neg(upper_neg))

    solved: List[Disequation] = []
    passed: List[Formula] = []
    for g in system.disequations:
        if g.mentions(x):
            q_raw, p_raw = g.cofactors(x)
            solved.append(Disequation(p=clean(p_raw), q=clean(q_raw)))
        else:
            passed.append(g)
    constraint = SolvedConstraint(
        variable=x, lower=lower, upper=upper, disequations=tuple(solved)
    )
    return constraint, passed


def solved_to_system(constraint: SolvedConstraint) -> EquationalSystem:
    """Rebuild the equational system denoted by a solved constraint.

    Inverse of :func:`solve_for` up to semantic equivalence; used by
    round-trip tests.
    """
    from ..boolean.syntax import Var, disj

    x = Var(constraint.variable)
    equation = disj(
        conj(constraint.lower, neg(x)), conj(x, neg(constraint.upper))
    )
    disequations = [r.body(constraint.variable) for r in constraint.disequations]
    return EquationalSystem(equation, disequations)
