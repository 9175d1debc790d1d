"""Billing ledger: aggregates per-invocation and SnapStart charges."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BillingLedger", "FunctionBill"]


@dataclass
class FunctionBill:
    """Cumulative charges for one deployed function."""

    function: str
    invocation_cost: float = 0.0
    snapstart_restore_cost: float = 0.0
    snapstart_cache_cost: float = 0.0
    invocations: int = 0
    cold_starts: int = 0
    #: Requests rejected by concurrency control — counted, never billed.
    throttles: int = 0

    @property
    def snapstart_cost(self) -> float:
        return self.snapstart_restore_cost + self.snapstart_cache_cost

    @property
    def total(self) -> float:
        return self.invocation_cost + self.snapstart_cost

    def charge_batch(
        self,
        statuses,
        costs,
        *,
        throttled_status: int,
        cold_starts: int,
        throttles: int,
    ) -> None:
        """Fold one emission batch into the bill, in row order.

        The bulk twin of :meth:`BillingLedger.charge_invocation` /
        :meth:`~BillingLedger.charge_throttle` for the fast replay
        engine's general path: ``invocation_cost`` stays a sequential
        float fold (its addition order is observable in exports), while
        the int counters take segment aggregates (*throttles* counts the
        batch's rows with *throttled_status*).
        """
        total = self.invocation_cost
        for status, cost in zip(statuses, costs):
            if status != throttled_status:
                total += cost
        self.invocation_cost = total
        self.invocations += len(statuses) - throttles
        self.cold_starts += cold_starts
        self.throttles += throttles

    def charge_block(
        self,
        *,
        invocation_cost: float,
        invocations: int,
        cold_starts: int,
    ) -> None:
        """Fold an all-billed columnar block into the bill.

        The columnar-loop twin of :meth:`charge_batch`: no row in the block
        is throttled, so the caller — which holds the cost column as an
        array — continues the sequential ``invocation_cost`` fold itself
        (a seeded ``cumsum`` is bit-identical to the per-row loop) and
        hands over the finished value with the segment's int aggregates.
        """
        self.invocation_cost = invocation_cost
        self.invocations += invocations
        self.cold_starts += cold_starts


@dataclass
class BillingLedger:
    """Account book across every function the emulator runs."""

    bills: dict[str, FunctionBill] = field(default_factory=dict)

    def bill_for(self, function: str) -> FunctionBill:
        if function not in self.bills:
            self.bills[function] = FunctionBill(function=function)
        return self.bills[function]

    def charge_invocation(self, function: str, cost: float, *, cold: bool) -> None:
        bill = self.bill_for(function)
        bill.invocation_cost += cost
        bill.invocations += 1
        if cold:
            bill.cold_starts += 1

    def charge_throttle(self, function: str) -> None:
        """Record a throttled request: it appears in the book, costs nothing."""
        self.bill_for(function).throttles += 1

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe per-function bill state (floats round-trip exactly)."""
        return {
            name: {
                "invocation_cost": bill.invocation_cost,
                "snapstart_restore_cost": bill.snapstart_restore_cost,
                "snapstart_cache_cost": bill.snapstart_cache_cost,
                "invocations": bill.invocations,
                "cold_starts": bill.cold_starts,
                "throttles": bill.throttles,
            }
            for name, bill in self.bills.items()
        }

    def restore(self, state: dict) -> None:
        self.bills = {
            name: FunctionBill(function=name, **fields)
            for name, fields in state.items()
        }

    def reconcile(self, records) -> None:
        """Assert the ledger matches per-record statuses *exactly*.

        Every billed record's cost must sum to its function's
        ``invocation_cost`` (float-identical, since both sides add the
        same numbers in the same order), billed/throttled counts must
        match, and no function may appear on one side only.  Raises
        :class:`AssertionError` on any mismatch — this is the chaos
        acceptance check, usable from tests and benchmarks alike.
        When *records* maintains an incremental ``billing_summary()``
        (:class:`~repro.platform.logs.ExecutionLog` does), the check runs
        off those per-function totals in O(functions) instead of
        materialising every record — same sums, same order, same
        assertions.
        """
        summary = getattr(records, "billing_summary", None)
        if callable(summary):
            self._reconcile_summary(summary())
            return
        expected: dict[str, dict[str, float]] = {}
        for record in records:
            entry = expected.setdefault(
                record.function,
                {"cost": 0.0, "invocations": 0, "cold": 0, "throttles": 0},
            )
            if record.billed:
                entry["cost"] += record.cost_usd
                entry["invocations"] += 1
                if record.is_cold:
                    entry["cold"] += 1
            else:
                assert record.cost_usd == 0.0, (
                    f"{record.request_id}: throttled record carries a cost"
                )
                entry["throttles"] += 1
        billed_functions = {
            name
            for name, bill in self.bills.items()
            if bill.invocations or bill.throttles
        }
        assert set(expected) == billed_functions, (
            f"ledger functions {sorted(billed_functions)} != "
            f"record functions {sorted(expected)}"
        )
        for name, entry in expected.items():
            bill = self.bills[name]
            assert bill.invocation_cost == entry["cost"], (
                f"{name}: ledger {bill.invocation_cost} != records {entry['cost']}"
            )
            assert bill.invocations == entry["invocations"], name
            assert bill.cold_starts == entry["cold"], name
            assert bill.throttles == entry["throttles"], name

    def _reconcile_summary(
        self, expected: dict[str, tuple[float, int, int, int, float]]
    ) -> None:
        billed_functions = {
            name
            for name, bill in self.bills.items()
            if bill.invocations or bill.throttles
        }
        assert set(expected) == billed_functions, (
            f"ledger functions {sorted(billed_functions)} != "
            f"record functions {sorted(expected)}"
        )
        for name, (cost, invocations, cold, throttles, throttled_cost) in (
            expected.items()
        ):
            assert throttled_cost == 0.0, (
                f"{name}: throttled records carry a cost: {throttled_cost}"
            )
            bill = self.bills[name]
            assert bill.invocation_cost == cost, (
                f"{name}: ledger {bill.invocation_cost} != records {cost}"
            )
            assert bill.invocations == invocations, name
            assert bill.cold_starts == cold, name
            assert bill.throttles == throttles, name

    def charge_snapstart_restore(self, function: str, cost: float) -> None:
        self.bill_for(function).snapstart_restore_cost += cost

    def charge_snapstart_cache(self, function: str, cost: float) -> None:
        self.bill_for(function).snapstart_cache_cost += cost

    @property
    def total(self) -> float:
        return sum(bill.total for bill in self.bills.values())
