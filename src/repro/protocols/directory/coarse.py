"""The Section 6 digit-coded "limited broadcast" directory.

To shrink a full map, the paper proposes storing "a word with d digits where
each digit takes on one of three values: 0, 1, and *both*".  A word with no
*both* digits indexes exactly one cache; each *both* digit doubles the set of
caches the word denotes.  The word is maintained as a **superset** of the
caches holding the block, using 2 bits per digit — ``2·log2(n)`` bits total
versus ``n`` presence bits for the full map.

On an invalidation the directory sends a directed message to every cache the
code denotes (a *limited broadcast*): correctness needs only that the
denoted set is a superset of the holders, so some messages are wasted — the
price of the compressed encoding, which the scalability bench quantifies.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from ...interconnect.bus import BusOp
from ..base import NO_OPS, OpList
from .dirnnb import DirnNB

__all__ = ["DigitCode", "DirCoarse"]

_ZERO, _ONE, _BOTH = 0, 1, 2


class DigitCode:
    """A d-digit base-{0,1,both} code denoting a set of cache indices."""

    __slots__ = ("digits",)

    def __init__(self, digits: Tuple[int, ...]) -> None:
        if any(digit not in (_ZERO, _ONE, _BOTH) for digit in digits):
            raise ValueError(f"digits must be 0, 1 or both(2): {digits}")
        self.digits = digits

    @classmethod
    def exact(cls, cache: int, width: int) -> "DigitCode":
        """The code denoting exactly ``cache`` (its binary index)."""
        if cache < 0 or (width and cache >= (1 << width)):
            raise ValueError(f"cache {cache} does not fit in {width} digits")
        return cls(tuple((cache >> i) & 1 for i in range(width)))

    def merged_with(self, cache: int) -> "DigitCode":
        """The smallest code denoting this set plus ``cache``."""
        digits = []
        for position, digit in enumerate(self.digits):
            bit = (cache >> position) & 1
            if digit == _BOTH or digit == bit:
                digits.append(digit)
            else:
                digits.append(_BOTH)
        return DigitCode(tuple(digits))

    def contains(self, cache: int) -> bool:
        return all(
            digit == _BOTH or digit == ((cache >> position) & 1)
            for position, digit in enumerate(self.digits)
        )

    @property
    def denoted_count(self) -> int:
        """How many caches this code denotes (2^#both)."""
        return 1 << sum(1 for digit in self.digits if digit == _BOTH)

    def denoted_caches(self) -> Tuple[int, ...]:
        """All cache indices the code denotes, ascending."""
        members = [0]
        for position, digit in enumerate(self.digits):
            if digit == _ONE:
                members = [m | (1 << position) for m in members]
            elif digit == _BOTH:
                members = members + [m | (1 << position) for m in members]
        return tuple(sorted(members))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DigitCode) and self.digits == other.digits

    def __hash__(self) -> int:
        return hash(self.digits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        text = "".join("01*"[digit] for digit in reversed(self.digits))
        return f"DigitCode({text!r})"


class DirCoarse(DirnNB):
    """Full-map behaviour with a 2·log2(n)-bit digit-coded sharer set."""

    name = "coarse"
    label = "DirCoarse"
    kind = "directory"

    def compile_table(self):
        """Not table-compilable: invalidation costs depend on the digit-coded
        sharer superset, which the table state cannot carry."""
        return None

    def __init__(self, n_caches: int) -> None:
        super().__init__(n_caches)
        self.width = max(1, math.ceil(math.log2(n_caches)))
        #: directory entry per block: the digit-coded sharer superset
        self._codes: Dict[int, DigitCode] = {}
        #: invalidation messages sent to caches that held no copy
        self.wasted_invalidations = 0

    def block_state(self, block: int):
        code = self._codes.get(block)
        return super().block_state(block) + (code and code.digits,)

    def _admit_holder(self, cache: int, block: int, flushed: bool = False) -> OpList:
        code = self._codes.get(block)
        if code is None:
            self._codes[block] = DigitCode.exact(cache, self.width)
        else:
            self._codes[block] = code.merged_with(cache)
        self.sharing.add_holder(block, cache)
        return NO_OPS

    def _note_exclusive(self, cache: int, block: int) -> None:
        self._codes[block] = DigitCode.exact(cache, self.width)

    def _invalidation_ops(self, fanout: int) -> OpList:
        """Unused: coarse invalidation needs the requester's identity, so the
        write paths are specialised below."""
        return ((BusOp.INVALIDATE, fanout),)

    def _write_hit_clean(self, cache, block):  # type: ignore[override]
        code = self._codes.get(block)
        outcome = super()._write_hit_clean(cache, block)
        if outcome.invalidation_fanout and code is not None:
            outcome = self._recost_invalidations(outcome, code, cache)
        return outcome

    def _write_miss(self, cache, block):  # type: ignore[override]
        code = self._codes.get(block)
        # The base class resets the entry to exact(writer) via _note_exclusive.
        outcome = super()._write_miss(cache, block)
        if outcome.invalidation_fanout and code is not None:
            outcome = self._recost_invalidations(outcome, code, cache)
        return outcome

    def _recost_invalidations(self, outcome, code: DigitCode, requester: int):
        """Charge one message per *denoted* cache instead of per holder."""
        from ..base import AccessOutcome

        targets = [
            target
            for target in code.denoted_caches()
            if target != requester and target < self.n_caches
        ]
        self.wasted_invalidations += max(
            0, len(targets) - outcome.invalidation_fanout
        )
        ops = tuple(
            (op, count) for op, count in outcome.ops if op is not BusOp.INVALIDATE
        )
        if targets:
            ops += ((BusOp.INVALIDATE, len(targets)),)
        return AccessOutcome(
            event=outcome.event,
            ops=ops,
            invalidation_fanout=outcome.invalidation_fanout,
        )

    @classmethod
    def directory_bits_per_block(cls, n_caches: int) -> int:
        """Two bits per digit (2·log2 n) plus a dirty bit."""
        return 2 * max(1, math.ceil(math.log2(n_caches))) + 1
