"""Output checks and accuracy scoring, run after the timed phase.

A failed check raises :class:`CheckFailed`; the run then reports no
numbers.  Accuracy is value-level against the generator's truth: a row
is correct when its page asserts its (predicate, normalized object);
recall is over the non-name facts of the distinct pages sent.
"""

from __future__ import annotations

import hashlib
import json

from repro.text.normalize import normalize_text


class CheckFailed(Exception):
    """The program's output was wrong; the run must not report numbers."""


def score(rows, page_of, pages) -> tuple[float, float]:
    """``(precision, recall)`` of ``rows`` against the pages' truth.

    ``page_of(row)`` finds a row's page; ``pages`` are the pages sent.
    Duplicate rows (a repeated page answered twice) count once.
    """
    predicted = set()
    correct = set()
    for row in rows:
        page = page_of(row)
        fact = (page.site, page.url, row["predicate"], normalize_text(row["object"]))
        predicted.add(fact)
        if fact[2:] in page.gold:
            correct.add(fact)
    distinct = {(page.site, page.url): page for page in pages}
    gold = sum(len(page.gold) for page in distinct.values())
    precision = len(correct) / len(predicted) if predicted else 0.0
    recall = len(correct) / gold if gold else 0.0
    return precision, recall


def digest_lines(lines) -> str:
    """sha256 over the sorted lines — order-free identity of an output."""
    hasher = hashlib.sha256()
    for line in sorted(lines):
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def digest_rows(rows) -> str:
    return digest_lines(
        json.dumps(row, sort_keys=True, ensure_ascii=False) for row in rows
    )


def check_served(outcomes, expected_rows, trained_sites) -> list:
    """Every answered request's rows equal the in-process rows for the
    same bytes, and zero-shot answers are tagged ``model="transfer"``.
    Returns all served rows."""
    served = []
    for index, (outcome, expected) in enumerate(zip(outcomes, expected_rows)):
        if not outcome.ok:
            continue
        payload = json.loads(outcome.body)
        rows = payload["rows"]
        if rows != expected:
            raise CheckFailed(
                f"request {index} ({outcome.request.site}): served rows differ "
                f"from in-process extract_pages ({len(rows)} vs {len(expected)})"
            )
        transfer = outcome.request.site not in trained_sites
        tags = {row.get("model", "site") for row in rows}
        if transfer and (payload["model"] != "transfer" or tags - {"transfer"}):
            raise CheckFailed(f"request {index}: zero-shot rows not tagged transfer")
        if not transfer and (payload["model"] != "site" or tags - {"site"}):
            raise CheckFailed(f"request {index}: per-site rows tagged {tags}")
        served.extend(rows)
    return served
