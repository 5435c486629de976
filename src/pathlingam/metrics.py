"""Evaluation of estimated orderings against ground truth."""

from dataclasses import dataclass

from .errors import LengthMismatch


@dataclass(frozen=True)
class OrderingError:
    """Fraction of variable pairs placed in the wrong relative order."""

    e_o: float
    wrong_pairs: int
    total_pairs: int

    def __post_init__(self):
        if not 0.0 <= self.e_o <= 1.0:
            raise ValueError("e_o must lie in [0, 1]")


def ordering_error(estimated, truth):
    """Pairwise disagreement between an estimated and a true ordering.

    ``estimated`` is a CausalOrder (or bare permutation); ``truth`` is the
    true permutation, both listing feature indices from first cause onward.
    Each unordered pair counts once; e_o = 2r / (p(p-1)).
    """
    est = tuple(getattr(estimated, "order", estimated))
    truth = tuple(int(i) for i in truth)
    if len(est) != len(truth):
        raise LengthMismatch(
            f"orderings cover {len(est)} and {len(truth)} features"
        )
    p = len(truth)
    if sorted(est) != list(range(p)) or sorted(truth) != list(range(p)):
        raise ValueError("both orderings must be permutations of 0..p-1")
    pos_est = {f: i for i, f in enumerate(est)}
    pos_true = {f: i for i, f in enumerate(truth)}
    wrong = 0
    for a in range(p):
        for b in range(a + 1, p):
            if (pos_est[a] < pos_est[b]) != (pos_true[a] < pos_true[b]):
                wrong += 1
    total = p * (p - 1) // 2
    return OrderingError(
        e_o=(2 * wrong) / (p * (p - 1)), wrong_pairs=wrong, total_pairs=total
    )

