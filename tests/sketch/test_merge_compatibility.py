"""Sketch unions reject mismatched parameters at runtime.

Lemma 2's union of two sketches is only defined when both were built with
the same size (HLL precision, bottom-k capacity) and the same hash salt.
Every ``merge`` and ``merge_within`` enforces that with a ``ValueError``
before touching the receiver; these cases pin the check down for each
sketch class and each parameter.
"""

from __future__ import annotations

import pytest

from repro.sketch import BottomK, HyperLogLog, VersionedBottomK, VersionedHLL

#: class, name of its size parameter, default size, a different size.
SKETCHES = [
    (HyperLogLog, "precision", 9, 10),
    (VersionedHLL, "precision", 9, 10),
    (BottomK, "k", 64, 32),
    (VersionedBottomK, "k", 64, 32),
]

#: (method, extra positional arguments) per class.
MERGES = {
    HyperLogLog: [("merge", ())],
    VersionedHLL: [("merge", ()), ("merge_within", (0, 10))],
    BottomK: [("merge", ())],
    VersionedBottomK: [("merge", ()), ("merge_within", (0, 10))],
}


def _fill(sketch, items):
    for step, item in enumerate(items):
        if isinstance(sketch, (HyperLogLog, BottomK)):
            sketch.add(item)
        else:
            sketch.add(item, timestamp=step)
    return sketch


CASES = [
    pytest.param(
        cls, size_param, size, other_size, method, extra, mismatch,
        id=f"{cls.__name__}.{method}-{mismatch}",
    )
    for cls, size_param, size, other_size in SKETCHES
    for method, extra in MERGES[cls]
    for mismatch in (size_param, "salt")
]


@pytest.mark.parametrize(
    "cls, size_param, size, other_size, method, extra, mismatch", CASES
)
def test_merge_rejects_mismatched_parameters(
    cls, size_param, size, other_size, method, extra, mismatch
):
    receiver = _fill(cls(**{size_param: size, "salt": 0}), ["a", "b"])
    before = receiver.cardinality()
    if mismatch == "salt":
        other = cls(**{size_param: size, "salt": 1})
    else:
        other = cls(**{size_param: other_size, "salt": 0})
    _fill(other, ["c", "d", "e"])

    with pytest.raises(ValueError, match="different"):
        getattr(receiver, method)(other, *extra)
    assert receiver.cardinality() == before

    # Control: the same call with matching parameters goes through.
    matching = _fill(cls(**{size_param: size, "salt": 0}), ["c", "d", "e"])
    getattr(receiver, method)(matching, *extra)
    assert receiver.cardinality() > before
