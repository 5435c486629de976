"""Evaluation of estimated orderings against ground truth."""

from .errors import LengthMismatch


def ordering_error(estimated, truth):
    """Pairwise disagreement between an estimated and a true ordering.

    ``estimated`` and ``truth`` are permutations of feature indices (such as
    a ``SearchResult``'s ``order``), each from first cause onward. Each
    unordered pair counts once: with r pairs in the wrong relative order,
    returns e_o = 2r / (p(p-1)), the fraction of pairs misplaced.
    """
    est = tuple(estimated)
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
    return (2 * wrong) / (p * (p - 1))

