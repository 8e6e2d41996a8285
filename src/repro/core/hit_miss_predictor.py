"""The dual-Bloom-filter extended-LLC hit/miss predictor (§4.1.2).

Extended LLC misses cost more than conventional LLC misses (773 ns vs 608 ns
in Fig. 5) because they pay an extra NoC round trip plus a software tag
lookup.  The Morpheus controller therefore predicts the outcome of each
extended-LLC lookup and sends predicted misses straight to DRAM.

Correctness requires that the predictor never produce a *false negative*
(predicting "miss" for a block that is actually cached would return stale
data from DRAM).  False positives merely waste the round trip.  The paper's
scheme keeps two Bloom filters per extended LLC set:

* **BF1** always contains at least all blocks currently in the set --
  querying BF1 can therefore never yield a false negative.
* **BF2** contains the *n* most recently used blocks of the set.

Every access inserts the block into both filters.  Once *n* reaches the set's
associativity, BF2 is guaranteed (under LRU) to contain every resident block,
so BF1 is cleared, the filters swap roles and the scheme repeats — bounding
the false-positive build-up from evicted blocks lingering in BF1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.core.bloom_filter import BloomFilter, bloom_mask


@dataclass
class PredictorStats:
    """Prediction outcome counters (ground truth supplied by the caller)."""

    predictions: int = 0
    predicted_hits: int = 0
    predicted_misses: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    swaps: int = 0

    @property
    def false_positive_rate(self) -> float:
        """Fraction of predictions that were hit-predictions on absent blocks."""
        if self.predictions == 0:
            return 0.0
        return self.false_positives / self.predictions

    def to_jsonable(self) -> Dict[str, int]:
        """Render the counters as a JSON-compatible field dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, payload: Dict[str, int]) -> "PredictorStats":
        """Rebuild stats from :meth:`to_jsonable` output (bit-identical)."""
        return cls(**payload)


class _SetPredictor:
    """Dual Bloom filter state for a single extended LLC set."""

    def __init__(self, associativity: int, filter_bytes: int, num_hashes: int) -> None:
        self.associativity = associativity
        self.bf1 = BloomFilter(filter_bytes, num_hashes)
        self.bf2 = BloomFilter(filter_bytes, num_hashes)
        # Tags known to be in BF2 since its last clear; len() is the paper's n.
        self._bf2_tags: Set[int] = set()

    def record_access(self, tag: int, mask: int) -> bool:
        """Update both filters on an access (insert or reuse) of ``tag``, whose mask is ``mask``.

        Maintains the two invariants and performs the BF1 <- BF2 swap when n
        reaches the associativity (flow diagram of Figure 6(b)).  Returns
        whether the filters swapped.
        """
        self.bf1.insert_mask(mask)
        self.bf2.insert_mask(mask)
        self._bf2_tags.add(tag)
        if len(self._bf2_tags) < self.associativity:
            return False
        self.bf1.clear()
        self.bf1, self.bf2 = self.bf2, self.bf1
        self._bf2_tags.clear()
        return True


class HitMissPredictor:
    """Per-partition hit/miss predictor: one dual-filter unit per extended LLC set.

    Args:
        num_sets: Extended LLC sets handled by this partition's controller
            (up to 256 on the modelled RTX 3080).
        associativity: Blocks per extended LLC set (32).
        filter_bytes: Size of each Bloom filter (32 B).
        num_hashes: Hash functions per filter.
    """

    def __init__(
        self,
        num_sets: int = 256,
        associativity: int = 32,
        filter_bytes: int = 32,
        num_hashes: int = 4,
    ) -> None:
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self.num_sets = num_sets
        self.associativity = associativity
        self.filter_bytes = filter_bytes
        self._sets: Dict[int, _SetPredictor] = {}
        self._num_hashes = num_hashes
        self._num_bits = filter_bytes * 8
        # Every filter here shares one size and hash count, so a tag's mask
        # is computed once and reused by every later prediction and update.
        self._masks: Dict[int, int] = {}
        self.stats = PredictorStats()

    def _set_predictor(self, set_index: int) -> _SetPredictor:
        if not 0 <= set_index < self.num_sets:
            raise ValueError(f"set_index {set_index} out of range [0, {self.num_sets})")
        predictor = self._sets.get(set_index)
        if predictor is None:
            predictor = _SetPredictor(self.associativity, self.filter_bytes, self._num_hashes)
            self._sets[set_index] = predictor
        return predictor

    def _mask(self, tag: int) -> int:
        mask = self._masks.get(tag)
        if mask is None:
            mask = self._masks[tag] = bloom_mask(tag, self._num_bits, self._num_hashes)
        return mask

    def predict(self, set_index: int, tag: int) -> bool:
        """Predict a hit (True) or miss (False) for ``tag`` in ``set_index`` (queries BF1)."""
        # Only validated set indexes are ever stored, so a hit skips the check.
        predictor = self._sets.get(set_index) or self._set_predictor(set_index)
        hit = predictor.bf1.query_mask(self._mask(tag))
        stats = self.stats
        stats.predictions += 1
        if hit:
            stats.predicted_hits += 1
        else:
            stats.predicted_misses += 1
        return hit

    def record_outcome(self, predicted_hit: bool, actual_hit: bool) -> None:
        """Record ground truth so false-positive/negative rates can be audited."""
        if predicted_hit and not actual_hit:
            self.stats.false_positives += 1
        elif not predicted_hit and actual_hit:
            self.stats.false_negatives += 1

    def record_access(self, set_index: int, tag: int) -> None:
        """Inform the predictor that ``tag`` was inserted into / reused in its set."""
        predictor = self._sets.get(set_index) or self._set_predictor(set_index)
        if predictor.record_access(tag, self._mask(tag)):
            self.stats.swaps += 1

    def storage_bytes(self) -> int:
        """Total Bloom filter storage provisioned by this predictor."""
        return self.num_sets * 2 * self.filter_bytes

    def reset(self) -> None:
        """Drop all per-set state and statistics."""
        self._sets.clear()
        self.stats = PredictorStats()
