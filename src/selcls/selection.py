"""Soft selection scores: one real number per sample, higher = keep.

Four interchangeable mechanisms:

    softmax_response   max class probability of the classifier
    negative_entropy   -H(class probabilities)
    abstention_logit   1 - p(abstain), for C+1 heads
    selection_head     the dedicated sigmoid unit of three-head models

For abstain-head models, softmax response and negative entropy first drop
the abstain entry and renormalize over the C real classes, implemented as
the softmax of the first C raw logits (the algebraically identical, and
numerically safer, form). Samples whose abstain probability is exactly 1
in floating point are flagged degenerate and scored -inf, so a finite
threshold never selects them. A threshold of -inf selects them all the
same; calibration fits one when fewer held-out scores are finite than the
target coverage needs (see ``evaluation``).
"""

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .nn import HEAD_ABSTAIN, sigmoid, softmax
from .util import atomic_write

# the head each mechanism needs, or None where any head will do
MECHANISM_HEADS = {
    "softmax_response": None, "negative_entropy": None,
    "abstention_logit": "abstain", "selection_head": "selectivenet",
}
MECHANISM_KINDS = tuple(MECHANISM_HEADS)


def predict_classes(logits, n_classes: int) -> np.ndarray:
    """The prediction rule of every command: the argmax of the C class
    logits, never the abstain entry."""
    return logits[:, :n_classes].argmax(axis=1)


def score_outputs(net, head_raw: dict, kinds) -> dict:
    """{kind: one selectability score per sample} for each mechanism in
    ``kinds``, from the raw head outputs of ``net`` that
    ``nn.network_outputs`` returns; sample order preserved.

    The softmax is taken once. The C-way class distribution and the
    degenerate mask are computed only for softmax response or negative
    entropy, and then once for both. Abstain heads renormalize by
    re-softmaxing the first C raw logits, which equals dividing the
    probabilities by (1 - p_abstain) but cannot lose precision when the
    abstain mass dominates.
    """
    logits = head_raw["logits"]
    probs = softmax(logits)[0]
    if {"softmax_response", "negative_entropy"}.intersection(kinds):
        if net.head == HEAD_ABSTAIN:
            q = softmax(logits[:, :net.n_classes])[0]
            degenerate = probs[:, -1] >= 1.0
        else:
            q, degenerate = probs, np.zeros(len(probs), dtype=bool)
    scores = {}
    for kind in kinds:
        if not mechanism_compatible(kind, net.head):
            raise ConfigurationError(
                f"mechanism {kind!r} is incompatible with a {net.head!r} head")
        if kind == "abstention_logit":
            scores[kind] = 1.0 - probs[:, -1]
        elif kind == "selection_head":
            scores[kind] = sigmoid(head_raw["select"][:, 0])
        else:
            # negative entropy: the sum of q log q, taken as 0 where q is 0
            s = q.max(axis=1) if kind == "softmax_response" else np.where(
                q > 0, q * np.log(np.clip(q, 1e-300, None)), 0.0).sum(axis=1)
            s[degenerate] = -np.inf
            scores[kind] = s
    return scores


def mechanism_compatible(kind: str, head: str) -> bool:
    return MECHANISM_HEADS[kind] in (None, head)


@lru_cache(maxsize=1)
def _row_ids(n: int) -> tuple:
    """The id column of an ``n``-row scores CSV with its separator ("0,",
    "1,", ...), kept for the next file of the same length: one eval writes
    one file per mechanism, all of one length."""
    return tuple(f"{i}," for i in range(n))


class _ClassStrings(dict):
    """A class column's string per class id, formatted from ``template``
    on the id's first lookup."""

    def __init__(self, template: str):
        self.template = template

    def __missing__(self, c):
        text = self[c] = self.template.format(c)
        return text


def scores_to_csv(path, scores, predicted, truth, header_comment: str = "") -> None:
    """One row per sample: id, score (shortest round-trip repr), predicted
    and true class, with the CRLF row endings of ``util.write_csv``, which
    it bypasses for speed. Each row is four pieces of one list, which is
    joined once: the cached id, the score's repr, and the two class
    columns, each looked up in a string per class id."""
    scores = np.asarray(scores, dtype=np.float64).tolist()
    n = len(scores)
    parts = [""] * (4 * n)
    parts[0::4] = _row_ids(n)
    parts[1::4] = map(repr, scores)
    parts[2::4] = map(_ClassStrings(",{}").__getitem__,
                      np.asarray(predicted, dtype=np.int64).tolist())
    parts[3::4] = map(_ClassStrings(",{}\r\n").__getitem__,
                      np.asarray(truth, dtype=np.int64).tolist())
    with atomic_write(path) as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        f.write("sample_id,score,predicted_class,true_class\r\n")
        f.write("".join(parts))
