"""Exact verdicts and witness replay past the acceptance sizes.

The acceptance gates draw at most 6 states and 2-3 agents.  Here 60 seeded
cyclic draws of 10, 20 and 30 states over 3 and 4 agents go through the
decomposability report and, with passive and with arbitrary failures,
through the post-failure report.  Each report must agree with its oracle,
and every witness it issues must replay.

``testkit.direct_ef12`` is left out: it compares continuations by bounded
enumeration, which is exact only on acyclic tasks, and every draw here is
cyclic.
"""
import random

from taskdec.decomposability import decomposability_report, replay_condition_witness
from taskdec.failure import ef_dual_agreement, remains_decomposable, replay_failure_witness
from taskdec.relations import replay_witness
from taskdec.testkit import GenParams, gen_failures, gen_scenario

SEEDS = range(1000, 1060)


def _draw(seed: int):
    states = (10, 20, 30)[seed % 3]
    sc = gen_scenario(GenParams(seed=seed, max_states=states, max_events=8,
                                agent_count=3 + seed % 2, allow_cycles=True,
                                max_branching=states))
    return sc.task_automaton, sc.d


def test_reports_agree_with_the_oracle_and_their_witnesses_replay():
    decomposable = witnesses = 0
    for seed in SEEDS:
        task, d = _draw(seed)
        report = decomposability_report(task, d)
        assert report.consistent, seed
        for condition in report.conditions:
            for w in condition.witnesses:
                assert replay_condition_witness(task, d, w), (seed, condition.condition, w)
                witnesses += 1
        if report.oracle.holds:
            decomposable += 1
        else:
            assert replay_witness(report.composition, task, report.oracle.witness), seed
    assert decomposable > 10 and len(SEEDS) - decomposable > 10 and witnesses > 1000


def test_failure_reports_agree_with_the_oracle_and_their_witnesses_replay():
    reports = predicted = witnesses = 0
    for seed in SEEDS:
        task, d = _draw(seed)
        for only_passive in (True, False):
            f = gen_failures(random.Random(f"scaled:{seed}:{only_passive}"), d, only_passive)
            if f.empty:
                continue
            fr = remains_decomposable(task, d, f)
            reports += 1
            predicted += fr.predicted is not None
            assert fr.consistent, (seed, f)
            sigma = dict(fr.sigma)
            for condition in fr.conditions:
                if condition.condition == "EF4":
                    assert ef_dual_agreement(condition), (seed, f)
                for w in condition.witnesses:
                    if w.kind == "failure-branch":
                        assert replay_failure_witness(task, d, f, w), (seed, f, w)
                    else:
                        assert replay_condition_witness(task, d, w, sigma), (seed, f, w)
                    witnesses += 1
            if not fr.remains:
                assert replay_witness(fr.composition, task, fr.oracle.witness), (seed, f)
    assert reports > 100 and predicted > 50 and witnesses > 1000
