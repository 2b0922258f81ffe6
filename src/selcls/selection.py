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

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError
from .nn import HEAD_ABSTAIN, sigmoid, stable_softmax
from .util import atomic_write

# the head each mechanism needs, or None where any head will do
MECHANISM_HEADS = {
    "softmax_response": None, "negative_entropy": None,
    "abstention_logit": "abstain", "selection_head": "selectivenet",
}
MECHANISM_KINDS = tuple(MECHANISM_HEADS)


@dataclass(frozen=True)
class SelectionMechanism:
    """One of the scoring rules in ``MECHANISM_KINDS``."""

    kind: str

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ConfigurationError(
                f"unknown selection mechanism {self.kind!r}")


@dataclass
class ProbOutput:
    """Prediction-head softmax plus retained raw logits for one batch."""

    logits: np.ndarray            # (m, C) or (m, C+1)
    probs: np.ndarray             # softmax(logits), same shape
    n_classes: int
    head: str                     # the network's head layout
    g_sel: np.ndarray | None = None

    @cached_property
    def class_probabilities(self):
        """C-way class distribution for scoring, plus the degenerate mask,
        computed once per output.

        Abstain heads renormalize by re-softmaxing the first C raw logits,
        which equals dividing the probabilities by (1 - p_abstain) but
        cannot lose precision when the abstain mass dominates.
        """
        if self.head != HEAD_ABSTAIN:
            return self.probs, np.zeros(len(self.probs), dtype=bool)
        return (stable_softmax(self.logits[:, :self.n_classes]),
                self.probs[:, -1] >= 1.0)

    @classmethod
    def from_heads(cls, net, head_raw: dict):
        """From raw head outputs, such as ``nn.network_outputs`` returns."""
        logits, select = head_raw["logits"], head_raw.get("select")
        return cls(logits=logits, probs=stable_softmax(logits),
                   n_classes=net.n_classes, head=net.head,
                   g_sel=None if select is None else sigmoid(select[:, 0]))


def predict_classes(output: ProbOutput) -> np.ndarray:
    """Argmax of the C class logits, as in training; never the abstain."""
    return np.argmax(output.logits[:, :output.n_classes], axis=1)


def score_batch(mechanism: SelectionMechanism, output: ProbOutput) -> np.ndarray:
    """One selectability score per sample; sample order preserved."""
    kind = mechanism.kind
    if not mechanism_compatible(kind, output.head):
        raise ConfigurationError(
            f"mechanism {kind!r} is incompatible with a {output.head!r} head")
    if kind == "softmax_response":
        q, degenerate = output.class_probabilities
        scores = q.max(axis=1)
    elif kind == "negative_entropy":
        q, degenerate = output.class_probabilities
        # sum of q log q, taken as 0 where q is 0
        scores = np.where(q > 0, q * np.log(np.clip(q, 1e-300, None)),
                          0.0).sum(axis=1)
    elif kind == "abstention_logit":
        return 1.0 - output.probs[:, -1]
    else:  # selection_head
        return output.g_sel
    scores[degenerate] = -np.inf
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
