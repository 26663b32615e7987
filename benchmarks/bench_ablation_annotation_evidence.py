"""Ablation: relation-annotation evidence (design choice, Section 3.2).

Isolates the contribution of each evidence source on IMDb person pages:
all-mentions (no Algorithm 2) vs local evidence only vs local + global
clustering (CERES-Full).  Expected: precision increases monotonically as
evidence is added.

Deviation from the paper: at seed 0 the table reads

    all-mentions (CERES-Topic)   P 0.76  R 0.64  F1 0.70
    local evidence only          P 1.00  R 0.93  F1 0.96
    local + global (CERES-Full)  P 1.00  R 0.93  F1 0.96

Local evidence accounts for the whole gain, and global evidence adds
nothing on these pages, although Section 3.2.2 says it helps.  The
asserts below hold either way: they require only that precision does
not fall as evidence is added.
"""

from conftest import report

from repro.evaluation.experiments import run_annotation_evidence_ablation


def test_ablation_annotation_evidence(benchmark):
    result = benchmark.pedantic(
        run_annotation_evidence_ablation, kwargs={"seed": 0},
        rounds=1, iterations=1,
    )
    report("ablation_annotation_evidence", result.format())

    all_mentions = result.scores["all-mentions (CERES-Topic)"]
    local = result.scores["local evidence only"]
    full = result.scores["local + global (CERES-Full)"]
    assert full.precision >= local.precision >= all_mentions.precision - 0.02
    assert full.f1 >= all_mentions.f1
