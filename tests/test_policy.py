import pytest

from corgi import (
    CorgiConfig,
    PolicyKind,
    SeededRng,
    baseline_directives,
    cached_count,
    contribution_scores,
    plan_steps,
    run_with_policy,
    select_cached,
)
from helpers import toy_setup


def test_plan_worked_example():
    roles = plan_steps(12, 2, 5)
    assert [r.label() for r in roles] == [
        "warmup", "warmup", "boundary",
        "intra:1", "intra:2", "intra:3", "intra:4",
        "boundary", "intra:1", "intra:2", "intra:3", "intra:4",
    ]


def test_plan_interval_one_is_all_boundaries():
    roles = plan_steps(6, 2, 1)
    assert [r.kind for r in roles] == ["warmup"] * 2 + ["boundary"] * 4


def test_plan_full_warmup():
    roles = plan_steps(5, 5, 3)
    assert all(r.kind == "warmup" for r in roles)


def test_plan_trailing_partial_interval():
    roles = plan_steps(8, 1, 4)
    assert [r.label() for r in roles] == [
        "warmup", "boundary", "intra:1", "intra:2", "intra:3",
        "boundary", "intra:1", "intra:2",
    ]


def test_plan_rejects_bad_params():
    with pytest.raises(ValueError):
        plan_steps(4, 5, 2)
    with pytest.raises(ValueError):
        plan_steps(4, 1, 0)
    with pytest.raises(ValueError):
        plan_steps(0, 0, 1)


def test_cached_count_values():
    assert cached_count(1, 30, 2, 38) == 30
    assert cached_count(2, 7, 2, 8) == 8  # capped
    assert cached_count(4, 3, 1, 16) == 6
    with pytest.raises(ValueError):
        cached_count(0, 3, 1, 8)


def test_select_cached_prefix():
    assert select_cached([1, 2, 0], 2) == {1, 2}
    assert select_cached([1, 2, 0], 0) == set()
    with pytest.raises(ValueError):
        select_cached([0, 1], 3)


def test_select_cached_nesting():
    ranking = [4, 1, 3, 0, 2]
    for m in range(len(ranking)):
        for n in range(m, len(ranking)):
            assert select_cached(ranking, m) <= select_cached(ranking, n)


def test_parity_directives():
    assert baseline_directives(PolicyKind.PARITY, 5, 2, 8) == {0, 2, 4, 6}
    assert baseline_directives(PolicyKind.PARITY, 5, 2, 8, parity="odd") == {1, 3, 5, 7}
    assert baseline_directives(PolicyKind.PARITY, 1, 2, 8) == set()  # warm-up


@pytest.mark.parametrize("step", [1, 5])
def test_parity_directives_reject_an_unknown_parity(step):
    # any value but "even" used to mean odd, in warm-up or not
    with pytest.raises(ValueError, match="parity"):
        baseline_directives(PolicyKind.PARITY, step, 2, 8, parity="prime")


def test_none_directives_empty():
    assert baseline_directives(PolicyKind.NONE, 9, 0, 8) == set()


def test_naive_directive_takes_ranking_prefix():
    ranking = [5, 0, 7, 1, 2, 3, 4, 6]
    got = baseline_directives(PolicyKind.PER_STEP_NAIVE, 4, 2, 8, ranking=ranking)
    assert got == {5, 0, 7, 1}
    with pytest.raises(ValueError):
        baseline_directives(PolicyKind.PER_STEP_NAIVE, 4, 2, 8)


@pytest.mark.parametrize("warmup, scored", [(0, 10), (1, 10), (5, 7)])
def test_per_step_naive_scores_only_steps_whose_ranking_it_reads(monkeypatch, warmup, scored):
    # the ranking is read at post-warm-up steps, and it needs two earlier
    # steps: T - max(warmup, 2) scorings at the CLI's default 12 steps
    import corgi.policy as policy

    calls = []

    def spy(prev, cur):
        calls.append(1)
        return contribution_scores(prev, cur)

    monkeypatch.setattr(policy, "contribution_scores", spy)
    model, x = toy_setup(0)
    assert model.config.total_steps == 12
    run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.PER_STEP_NAIVE, warmup=warmup))
    assert len(calls) == scored


def test_random_directive_is_seeded():
    a = baseline_directives(PolicyKind.RANDOM, 3, 0, 8, rng=SeededRng(1))
    b = baseline_directives(PolicyKind.RANDOM, 3, 0, 8, rng=SeededRng(1))
    assert a == b
    assert len(a) == 4
    draws = {
        frozenset(baseline_directives(PolicyKind.RANDOM, 3, 0, 8, rng=SeededRng(s)))
        for s in range(8)
    }
    assert len(draws) > 1


def test_resolved_defaults():
    cfg = CorgiConfig().resolved(total_steps=12, num_blocks=8, text_tokens=20)
    assert cfg.warmup == 2  # round(0.2 * 12)
    assert cfg.gamma == 4
    assert cfg.top_c == 2


def test_resolved_validation():
    with pytest.raises(ValueError, match="warmup"):
        CorgiConfig(warmup=13).resolved(12, 8, 4)
    with pytest.raises(ValueError, match="interval"):
        CorgiConfig(interval=0).resolved(12, 8, 4)
    with pytest.raises(ValueError, match="gamma"):
        CorgiConfig(gamma=9).resolved(12, 8, 4)
    with pytest.raises(ValueError, match="delta"):
        CorgiConfig(delta=-1).resolved(12, 8, 4)
    with pytest.raises(ValueError, match="residual"):
        CorgiConfig(residual="maybe").resolved(12, 8, 4)
    with pytest.raises(ValueError, match="parity"):
        CorgiConfig(parity="prime").resolved(12, 8, 4)
