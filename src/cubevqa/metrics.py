"""Evaluation: consensus accuracy, thresholded Wu-Palmer scores, reports.

Consensus accuracy scores a prediction against ten human answers as
``min(matching_humans / 3, 1)``. The Wu-Palmer similarity of two answer
terms is ``2 * depth(lca) / (depth(a) + depth(b))`` over a rooted taxonomy
with the root at depth 1; the thresholded aggregate down-weights pairs below
the threshold by a factor of 0.1, which is what makes the 0.0 and 0.9
operating points genuinely different. Terms missing from the taxonomy score
1.0 against an identical string and 0.0 otherwise, keeping the metric total.

Answer strings are normalized before any comparison: lowercased, trimmed,
and with internal whitespace runs collapsed.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import HUMAN_ANSWERS_PER_QUESTION
from .tensor import InvalidArgumentError
from .training import open_text

WUPS_DOWNWEIGHT = 0.1
EVAL_BATCH = 64  # examples per evaluation forward


def normalize_answer(answer):
    return " ".join(answer.strip().lower().split())


def vqa_accuracy(predicted, human_answers):
    """Consensus score of one prediction against exactly ten human answers."""
    if len(human_answers) != HUMAN_ANSWERS_PER_QUESTION:
        raise InvalidArgumentError(f"consensus accuracy needs {HUMAN_ANSWERS_PER_QUESTION} "
                                   f"human answers, got {len(human_answers)}")
    target = normalize_answer(predicted)
    matches = sum(1 for ans in human_answers if normalize_answer(ans) == target)
    return min(matches / 3.0, 1.0)


# ---------------------------------------------------------------------------
# taxonomy


class TaxonomyError(ValueError):
    """The taxonomy edge list is malformed (cycle, multi-root, re-parenting)."""


class Taxonomy:
    """Rooted tree of answer terms. A term's depth is the length of its
    ``chain`` to the root, so the root has depth 1."""

    def __init__(self, parents):
        self._parents = dict(parents)
        roots = {parent for parent in self._parents.values() if parent not in self._parents}
        if len(roots) != 1:
            raise TaxonomyError(f"expected a single root, found {sorted(roots)}")
        self.root = next(iter(roots))
        for term in self._parents:
            self.chain(term)

    def chain(self, term):
        """``term`` and its ancestors, nearest first, ending at the root.

        A chain of more non-root terms than the taxonomy has repeats one:
        ``term`` leads into a cycle.
        """
        chain = [term]
        while chain[-1] != self.root:
            if len(chain) > len(self._parents):
                raise TaxonomyError(f"cycle detected near term {term!r}")
            chain.append(self._parents[chain[-1]])
        return chain

    @classmethod
    def load(cls, path):
        """Parse ``parent<TAB>child`` lines into a taxonomy."""
        parents = {}
        with open_text(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                    raise TaxonomyError(f"{path}:{lineno}: expected 'parent<TAB>child'")
                parent = normalize_answer(parts[0])
                child = normalize_answer(parts[1])
                if child in parents and parents[child] != parent:
                    raise TaxonomyError(
                        f"{path}:{lineno}: term {child!r} already has parent {parents[child]!r}")
                parents[child] = parent
        if not parents:
            raise TaxonomyError(f"{path}: taxonomy is empty")
        return cls(parents)

    def __contains__(self, term):
        return term == self.root or term in self._parents


def wup_similarity(a, b, taxonomy):
    """Wu-Palmer similarity in (0, 1]; 1 iff both terms are the same node.

    Falls back to exact string match when either term is missing from the
    taxonomy.
    """
    a = normalize_answer(a)
    b = normalize_answer(b)
    if a not in taxonomy or b not in taxonomy:
        return 1.0 if a == b else 0.0
    if a == b:
        return 1.0
    chain_a = taxonomy.chain(a)
    chain_b = taxonomy.chain(b)
    in_b = set(chain_b)
    # the lowest common ancestor is the first of a's chain on b's; its depth
    # is the length of a's chain from there to the root
    below_lca = next(steps for steps, term in enumerate(chain_a) if term in in_b)
    return 2.0 * (len(chain_a) - below_lca) / (len(chain_a) + len(chain_b))


def wups_score(predictions, ground_truths, taxonomy, threshold):
    """Mean thresholded Wu-Palmer score over prediction/truth pairs."""
    if not 0.0 <= threshold <= 1.0:
        raise InvalidArgumentError(f"threshold must be in [0, 1], got {threshold}")
    if len(predictions) != len(ground_truths):
        raise InvalidArgumentError(
            f"{len(predictions)} predictions vs {len(ground_truths)} ground truths")
    if not predictions:
        raise InvalidArgumentError("wups_score: empty input")
    total = 0.0
    for pred, truth in zip(predictions, ground_truths):
        s = wup_similarity(pred, truth, taxonomy)
        if s < threshold:
            s *= WUPS_DOWNWEIGHT
        total += s
    return total / len(predictions)


# ---------------------------------------------------------------------------
# dataset-level evaluation


@dataclass
class EvalReport:
    accuracy: float
    per_type: dict = field(default_factory=dict)   # type -> (accuracy, count)
    wups_0_9: float = None
    wups_0_0: float = None
    count: int = 0
    notes: list = field(default_factory=list)

    def rows(self):
        """Machine-readable (metric, name, value) rows."""
        out = [("accuracy", "all", self.accuracy), ("count", "all", self.count)]
        for kind in sorted(self.per_type):
            acc, n = self.per_type[kind]
            out.append(("accuracy", kind, acc))
            out.append(("count", kind, n))
        if self.wups_0_9 is not None:
            out.append(("wups", "0.9", self.wups_0_9))
        if self.wups_0_0 is not None:
            out.append(("wups", "0.0", self.wups_0_0))
        return out

    def to_csv(self):
        lines = ["metric,name,value"]
        for metric, name, value in self.rows():
            lines.append(f"{metric},{name},{value:.6f}" if isinstance(value, float)
                         else f"{metric},{name},{value}")
        return "\n".join(lines) + "\n"

    def to_text(self):
        lines = [f"{'accuracy':<12} {'all':<10} {self.accuracy:>8.4f}  (n={self.count})"]
        for kind in sorted(self.per_type):
            acc, n = self.per_type[kind]
            lines.append(f"{'accuracy':<12} {kind:<10} {acc:>8.4f}  (n={n})")
        if self.wups_0_9 is not None:
            lines.append(f"{'wups@0.9':<12} {'all':<10} {self.wups_0_9:>8.4f}")
        if self.wups_0_0 is not None:
            lines.append(f"{'wups@0.0':<12} {'all':<10} {self.wups_0_0:>8.4f}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def question_type(tokens):
    """Coarse question type for breakdowns: the word after the leading
    question word when present (e.g. 'what color ...' -> 'color')."""
    return tokens[1] if len(tokens) > 1 else tokens[0]


def predict_answers(vqa_model, dataset):
    """The model's answer id for every example, in example order.

    The examples are scored ``EVAL_BATCH`` at a time in a stable order of
    region count, so a batch pads few rows: every padded row would be
    computed and then masked.
    """
    counts = np.array([features.shape[0] for features in dataset.features])
    order = np.argsort(counts, kind="stable")
    best = np.empty(order.size, dtype=np.int64)
    for start in range(0, order.size, EVAL_BATCH):
        chosen = order[start:start + EVAL_BATCH]
        (batch,) = dataset.gather(chosen)
        best[chosen] = np.argmax(vqa_model.predict_batch(batch), axis=-1)
    return best


def evaluate(vqa_model, dataset, taxonomy=None):
    """Run the model over a prepared dataset and aggregate all metrics.

    Dropout is off (evaluation mode). WUPS compares the predicted answer
    string with each example's training target and is omitted (with a note)
    when no taxonomy is supplied.
    """
    n = dataset.size()
    if n == 0:
        raise InvalidArgumentError("evaluate: dataset is empty")
    preds = [dataset.answer_vocab[int(answer)]
             for answer in predict_answers(vqa_model, dataset)]
    scores_per_example = []
    per_type = {}
    for i, ex in enumerate(dataset.examples):
        score = vqa_accuracy(preds[i], ex.human_answers)
        scores_per_example.append(score)
        kind = question_type(ex.tokens)
        bucket = per_type.setdefault(kind, [0.0, 0])
        bucket[0] += score
        bucket[1] += 1
    report = EvalReport(
        accuracy=float(np.mean(scores_per_example)),
        per_type={kind: (total / count, count) for kind, (total, count) in per_type.items()},
        count=n)
    truths = [dataset.answer_vocab[ex.train_label] for ex in dataset.examples]
    if taxonomy is not None:
        report.wups_0_9 = wups_score(preds, truths, taxonomy, 0.9)
        report.wups_0_0 = wups_score(preds, truths, taxonomy, 0.0)
    else:
        report.notes.append("no taxonomy supplied; WUPS omitted")
    return report
