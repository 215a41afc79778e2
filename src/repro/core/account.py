"""The per-node token account (§3.1).

"Each node has an account, which can hold a non-negative integer number
of tokens." The account enforces its two invariants directly:

* the balance never goes negative ("we do not allow overspending");
* when the owning strategy has a finite token capacity ``C`` (the
  smallest balance at which the proactive function returns 1, §3.4),
  banking a token never pushes the balance above ``C``.

The second invariant needs one clarification beyond the paper. In the
failure-free flow the balance can never exceed ``C`` anyway: at ``a = C``
the proactive function is 1, so the round's token is always spent, never
banked. Under churn, however, a node whose online neighbors all vanished
may be *unable* to send its proactive message. We bank the token in that
case (the node earned it), but clamp at ``C`` so the §3.4 burst bound —
"a node cannot send more than ⌊t/Δ⌋ + C messages within a period of time
t" — survives arbitrary churn.

The purely reactive reference strategy needs overdraft ("with relaxing
the non-negativity constraint of the balance, the purely reactive
strategy can be expressed as well", §3.1); ``allow_overdraft=True``
disables the non-negativity check for that one case.
"""

from __future__ import annotations

from typing import Optional


class OverspendError(RuntimeError):
    """Raised when a withdrawal would push a guarded account negative."""


class TokenAccount:
    """An integer token balance with capacity and non-negativity invariants.

    Parameters
    ----------
    initial:
        Starting balance. The paper's experiments start every node at 0.
    capacity:
        The token capacity ``C`` of the owning strategy, or ``None`` for
        strategies without a finite capacity (purely reactive reference).
    allow_overdraft:
        Permit negative balances (purely reactive reference only).
    """

    __slots__ = ("balance", "capacity", "allow_overdraft", "granted", "spent")

    def __init__(
        self,
        initial: int = 0,
        capacity: Optional[int] = None,
        allow_overdraft: bool = False,
    ):
        if initial < 0 and not allow_overdraft:
            raise ValueError(f"initial balance must be >= 0, got {initial}")
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if capacity is not None and initial > capacity:
            raise ValueError(f"initial balance {initial} exceeds capacity {capacity}")
        self.balance = int(initial)
        self.capacity = capacity
        self.allow_overdraft = allow_overdraft
        self.granted = 0
        self.spent = 0

    # ------------------------------------------------------------------
    def grant(self) -> None:
        """Bank one token (the skipped-send branch of Algorithm 4).

        Clamps at the strategy's token capacity; see the module docstring
        for why clamping only matters under churn.
        """
        if self.capacity is not None and self.balance >= self.capacity:
            return
        self.balance += 1
        self.granted += 1

    def withdraw(self, amount: int) -> None:
        """Spend ``amount`` tokens on reactive messages."""
        if amount < 0:
            raise ValueError(f"cannot withdraw a negative amount: {amount}")
        if amount > self.balance and not self.allow_overdraft:
            raise OverspendError(
                f"withdrawal of {amount} exceeds balance {self.balance}"
            )
        self.balance -= amount
        self.spent += amount

    def refund(self, amount: int) -> None:
        """Return tokens withdrawn for sends that could not happen.

        Under churn a node may withdraw ``x`` tokens but find no online
        peer for some of the ``x`` messages; those tokens go back (still
        respecting the capacity clamp).
        """
        if amount < 0:
            raise ValueError(f"cannot refund a negative amount: {amount}")
        if amount == 0:
            return
        restored = self.balance + amount
        if self.capacity is not None:
            restored = min(restored, self.capacity)
        self.spent -= restored - self.balance
        self.balance = restored

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TokenAccount(balance={self.balance}, capacity={self.capacity}, "
            f"granted={self.granted}, spent={self.spent})"
        )
