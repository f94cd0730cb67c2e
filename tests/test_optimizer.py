"""Threshold search tests, including brute-force grid oracles."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from flashopt.channel import Condition, DEFAULT_PARAMS, StateModel, state_models
from flashopt import ldpc, optimizer
from flashopt.optimizer import (CisConfig, cis_optimize, cis_optimize_many,
                                eps_max_batch, init_thresholds, mmi_optimize)
from flashopt.harness import ExperimentConfig, run_ccr
from flashopt.quantizer import (PAGE_STATES, ThresholdSet, hard_thresholds,
                                llr_table, transition_matrix)
from flashopt.fbl import eps_max, info_iu


def mutual_information(models, d):
    """I in bits of the four-state channel that thresholds ``d`` read."""
    return info_iu(transition_matrix(models, d)[None], np.full(4, 0.25))[0][0]


def test_config_validation():
    # a run sets J and the lattice step; the window and sweep cap are fixed
    assert list(CisConfig.__dataclass_fields__) == ["j_levels", "grid_step"]
    with pytest.raises(ValueError):
        CisConfig(j_levels=0)
    for grid_step in (0.0, -0.01, 0.3):  # 0.3: a step wider than the window
        with pytest.raises(ValueError, match="grid_step must lie in"):
            CisConfig(grid_step=grid_step)
    assert CisConfig(grid_step=optimizer.LAM).grid_step == optimizer.LAM
    for kwargs in ({"grid_step": "x"}, {"j_levels": 2.5}, {"j_levels": None}):
        with pytest.raises(ValueError):
            CisConfig(**kwargs)


def test_init_recipe_spacing():
    models = state_models(Condition(0.0, 0.0))
    h = hard_thresholds(models)
    delta = (h[2] - h[0]) / 5
    d = init_thresholds(h, 6)
    expect = [h[0] - delta, h[0] + delta, h[0] + 2 * delta, h[0] + 3 * delta,
              h[0] + 4 * delta, h[2] + delta]
    assert np.allclose(d, expect, atol=1e-12)
    # outermost levels sit one spacing outside the crossing span
    assert d[0] < h[0] and d[-1] > h[2]


def test_searches_need_three_levels():
    # CisConfig takes J 1 and 2, which need no search ("hard", "file");
    # both searches reject them, naming the key
    for j_levels in (1, 2):
        cfg = CisConfig(j_levels=j_levels)
        with pytest.raises(ValueError, match=f"j_levels of at least 3, got {j_levels}"):
            cis_optimize(Condition(0.0, 0.0), DEFAULT_PARAMS, 2624, 0.9, cfg)
        with pytest.raises(ValueError, match=f"j_levels of at least 3, got {j_levels}"):
            mmi_optimize(Condition(0.0, 0.0), DEFAULT_PARAMS, cfg)


@pytest.mark.parametrize("v_target, cond, j_levels, expect", [
    ((0.1, 0.7, 1.3, 1.9), Condition(0.0, 0.0), 3, (0.48, 1.08, 1.4)),
    ((0.0, 0.4, 1.0, 1.6), Condition(0.0, 0.0), 3, (0.4, 0.7, 1.2)),
    ((0.0, 0.4, 1.0, 1.6), Condition(0.0, 0.0), 6, (0.05, 0.15, 0.25, 0.55, 0.7, 1.2)),
])
def test_search_drops_a_recipe_start_at_or_below_0_volts(v_target, cond, j_levels, expect):
    # the recipe's first threshold lies one spacing below the first
    # crossing, at or below 0 V here; the split starts still search
    params = replace(DEFAULT_PARAMS, v_target=v_target)
    h = hard_thresholds(state_models(cond, params))
    assert init_thresholds(h, j_levels)[0] <= 0.0
    d, _ = cis_optimize(cond, params, 2624, 0.9, CisConfig(j_levels=j_levels))
    assert d.as_array() == pytest.approx(expect, abs=1e-12)


def test_search_names_crossings_below_the_lattice():
    params = replace(DEFAULT_PARAMS, v_target=(-1.0, 0.2, 0.8, 1.4))
    with pytest.raises(ValueError, match=r"crossing, -0.0684 V, lies below the first "
                                         r"lattice point, 0.01 V"):
        cis_optimize(Condition(0.0, 0.0), params, 2624, 0.9, CisConfig(j_levels=3))


def test_mmi_result_is_a_grid_fixed_point_of_mutual_information():
    # the search scores candidates through its lattice tables; judged by
    # the transition matrix instead, no single in-window grid move of its
    # result may raise the mutual information
    cfg = CisConfig()
    steps = int(round(optimizer.LAM / cfg.grid_step))
    for cond in (Condition(9000.0, 100.0), Condition(15000.0, 0.0),
                 Condition(4000.0, 1e5)):
        models = state_models(cond)
        d = mmi_optimize(cond, DEFAULT_PARAMS, cfg)
        best = mutual_information(models, d)
        base = d.as_array()
        for j in range(base.size):
            for off in range(-steps, steps + 1):
                moved = base.copy()
                moved[j] += off * cfg.grid_step
                if moved[0] <= 0 or not np.all(np.diff(moved) > 0):
                    continue
                mi = mutual_information(models, ThresholdSet(tuple(moved)))
                assert mi <= best + 1e-12, (cond, j, off, mi, best)


def test_cis_history_monotone_and_consistent():
    cond = Condition(10000.0, 1000.0)
    d, history = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9)
    assert len(history) >= 1
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    assert history[-1] == pytest.approx(
        eps_max_batch(d.as_array(), state_models(cond), 2624, 0.9)[0], rel=1e-12)


def test_cis_no_worse_than_init():
    cond = Condition(13000.0, 200.0)
    models = state_models(cond)
    d0 = init_thresholds(hard_thresholds(models), 6)
    e0 = eps_max_batch(d0, models, 2624, 0.9)[0]
    d, history = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9)
    assert history[-1] <= e0 * (1 + 1e-12)


def test_cis_deterministic():
    # the search draws no random numbers, so seed changes nothing
    cond = Condition(12000.0, 40.0)
    a, ha = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9)
    b, hb = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9, seed=3)
    assert a == b and ha == hb


def test_more_levels_do_not_hurt():
    cond = Condition(12000.0, 500.0)
    _, h6 = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9,
                         CisConfig(j_levels=6))
    _, h9 = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9,
                         CisConfig(j_levels=9))
    assert h9[-1] <= h6[-1] * (1 + 1e-9)


def test_mmi_beats_init_on_mutual_information():
    cond = Condition(9000.0, 100.0)
    models = state_models(cond)
    d0 = ThresholdSet(tuple(init_thresholds(hard_thresholds(models), 6)))
    d = mmi_optimize(cond, DEFAULT_PARAMS)
    i0 = mutual_information(models, d0)
    i1 = mutual_information(models, d)
    assert i1 >= i0 - 1e-12


def test_cis_result_is_a_grid_fixed_point_in_the_deep_tail():
    # eps here is ~1e-78 and ~1e-19, far below any absolute stop
    # threshold; the search must still run until no single coordinate
    # move on its grid lowers it
    cfg = CisConfig()
    steps = int(round(optimizer.LAM / cfg.grid_step))
    for cond in (Condition(5000.0, 0.0), Condition(4000.0, 1e5)):
        models = state_models(cond)
        d, history = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9, cfg)
        best = eps_max_batch(d.as_array(), models, 2624, 0.9)[0]
        assert history[-1] == pytest.approx(best, rel=1e-12)
        base = d.as_array()
        for j in range(base.size):
            for off in range(-steps, steps + 1):
                moved = base.copy()
                moved[j] += off * cfg.grid_step
                if moved[0] <= 0 or not np.all(np.diff(moved) > 0):
                    continue
                eps = eps_max_batch(moved, models, 2624, 0.9)[0]
                assert eps >= best * (1 - 1e-9), (cond, j, off, eps, best)


def test_cis_finds_the_best_split_of_levels_among_crossings():
    # at this wear and retention the best thresholds put two levels nearest
    # the first crossing, one nearest the second and three nearest the
    # third (eps 1.32e-5); a descent from the recipe start alone ends at
    # 3/1/2 with eps 2.19e-5
    cond = Condition(5000.0, 3e5)
    h = np.array(hard_thresholds(state_models(cond)))
    d, _ = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9, CisConfig())
    nearest = np.argmin(np.abs(d.as_array()[:, None] - h), axis=1)
    assert np.bincount(nearest, minlength=3).tolist() == [2, 1, 3]


# The searches' outputs, pinned bit for bit: wear x retention x J at grid
# 0.01 (eps down to ~1e-144 at PE 0, saturated at 1 from PE 12000 on),
# a few points at grid 0.005, and points at rate 0.8 where eps underflows
# to 0 and the search compares logit(eps) from log_ndtr.
_PINNED_GRID = [(pe, t, j, 0.01, 0.9) for j in (3, 6, 9)
                for pe in (0.0, 4000.0, 8000.0, 12000.0, 16000.0, 19000.0)
                for t in (0.0, 1e3, 1e5, 1e6)]
_PINNED_EXTRA = [(4000.0, 0.0, 6, 0.005, 0.9), (12000.0, 1e3, 6, 0.005, 0.9),
                 (19000.0, 1e6, 9, 0.005, 0.9), (0.0, 0.0, 6, 0.01, 0.8),
                 (8000.0, 0.0, 9, 0.01, 0.8)]


def _hex_digest(values) -> str:
    return hashlib.sha256(" ".join(float(x).hex() for x in values).encode()).hexdigest()


def test_search_outputs_are_pinned():
    cis, mmi, ends = [], [], set()
    for pe, t, j, grid, rate in _PINNED_GRID + _PINNED_EXTRA:
        cond, cfg = Condition(pe, t), CisConfig(j_levels=j, grid_step=grid)
        d, history = cis_optimize(cond, DEFAULT_PARAMS, 2624, rate, cfg)
        cis += [*d.as_array(), *history]
        ends.add(history[-1])
        mmi += mmi_optimize(cond, DEFAULT_PARAMS, cfg).as_array().tolist()
    assert {0.0, 1.0} <= ends
    assert _hex_digest(cis) == ("bf084640590d923b3e3e15c7ed95b3f8"
                                "130d6a048034773be17d0889034a3df4")
    assert _hex_digest(mmi) == ("b398c59bf489f4d8f14efd8c69e364b5"
                                "8fe517e4fb0e8edfd61cb62adac7e4b6")


def test_search_climbing_past_the_first_table_is_pinned():
    # at PE 16000 / 1e5 h and J 9 the top threshold climbs more than five
    # windows (1 V) above every start of the batch, far past the lattice
    # points the search tabulates first, so the table grows while it runs
    conds = [Condition(16000.0, 1e5), Condition(8000.0, 0.0), Condition(19000.0, 1e6)]
    values = []
    for grid in (0.01, 0.005):
        cfg = CisConfig(j_levels=9, grid_step=grid)
        results = cis_optimize_many(conds, DEFAULT_PARAMS, 2624, 0.9, cfg)
        top = max(optimizer._starts(state_models(c), cfg).max() for c in conds)
        assert round(results[0][0].d[-1] / grid) > top + 5 * round(optimizer.LAM / grid)
        for d, history in results:
            values += [*d.as_array(), *history]
    assert _hex_digest(values) == ("a69b961416ffa1c32ba295a21452f903"
                                   "fdd100d6c1e42e4a57d6a725f3a0abd7")


def test_starts_find_the_crossings_once_per_condition(monkeypatch):
    calls = []
    real = optimizer.hard_thresholds
    monkeypatch.setattr(optimizer, "hard_thresholds",
                        lambda models: calls.append(models) or real(models))
    monkeypatch.setattr(np.random, "default_rng", None)  # the search draws no numbers
    conds = [Condition(8000.0, 0.0), Condition(12000.0, 1e3), Condition(16000.0, 1e5)]
    cis_optimize_many(conds, DEFAULT_PARAMS, 2624, 0.9, CisConfig(grid_step=0.05))
    assert len(calls) == len(conds)


def test_ccr_rates_are_pinned():
    cfg = ExperimentConfig(code_list=("2k-qc", "4k-qc"), j_list=(3, 9),
                           pe_list=(0.0, 8000.0, 16000.0), t_list=(0.0, 1e5))
    rates = [row["rate"] for row in run_ccr(cfg)]
    assert len(rates) == 24
    assert _hex_digest(rates) == ("83ad9f5c0b90f3ea3879a963d0122c7c"
                                  "8706e59519c5b1adce7cf65fae261038")


# Hand-built states 1 V apart and 0.02 V wide: each state's mass is
# exactly 0 outside its own region, so a region holds one state or none.
_NARROW = [StateModel(s, 1.0 + s, 0.02) for s in range(4)]


def _llr_branch(num: float, den: float, l_max: float) -> str:
    if num <= 0.0 and den <= 0.0:
        return "empty"
    if den <= 0.0:
        return "bit-0 empty"
    if num <= 0.0:
        return "bit-1 empty"
    return "clamped" if abs(np.log(num / den)) > l_max else "ordinary"


def test_llr_tables_are_pinned(monkeypatch):
    cases = [(_NARROW, ThresholdSet((1.5, 2.5, 3.5, 50.0)))]
    for pe, t in ((0.0, 0.0), (4000.0, 1e5), (8000.0, 1e3), (12000.0, 0.0),
                  (16000.0, 1e6), (19000.0, 1e6)):
        cond = Condition(pe, t)
        models = state_models(cond)
        cases.append((models, ThresholdSet(hard_thresholds(models))))
        for j in (6, 9):
            d, _ = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9, CisConfig(j_levels=j))
            cases.append((models, d))
    values, branches = [], set()
    for models, d in cases:
        w = transition_matrix(models, d)
        for l_max in (2.5, 30.0):
            monkeypatch.setattr(ldpc, "L_MAX", l_max)
            values += llr_table(models, d).ravel().tolist()
            for page in range(2):
                num = w[PAGE_STATES[page, 1]].sum(axis=0)
                branches.update(_llr_branch(a, b, l_max)
                                for a, b in zip(num, w.sum(axis=0) - num))
    assert branches == {"empty", "bit-0 empty", "bit-1 empty", "clamped", "ordinary"}
    assert _hex_digest(values) == ("948ac0604d2a102f96fd9eb81088b3c4"
                                   "35fcd172992f208d98d3fe289fd18942")


def _hex(result) -> list:
    d, history = result
    return [float(x).hex() for x in (*d.as_array(), *history)]


# deep tail (at rate 0.8, eps ~1e-250 and, at PE 0, 0), saturated (eps
# 1 throughout), ordinary points, and one condition twice
_MIXED = [Condition(8000.0, 0.0), Condition(19000.0, 1e6), Condition(12000.0, 1e3),
          Condition(4000.0, 1e5), Condition(8000.0, 0.0), Condition(16000.0, 100.0),
          Condition(0.0, 0.0)]


def test_eps_order_decides_eps_or_logit_per_condition():
    # condition 0's eps lie in range, condition 1's reach 1 and condition
    # 2's underflow: each must read as in a call of its own
    t = np.array([[3.0, 4.0, -40.0, -1.0, 40.0, 39.0], [3.5, 4.5, -50.0, -2.0, 41.0, 45.0]])
    cond = np.array([0, 0, 1, 1, 2, 2])
    parts = [optimizer._eps_order(t[:, cond == c], np.zeros(2, int)) for c in range(3)]
    assert np.array_equal(parts[0], eps_max(*t[:, :2]))
    assert np.array_equal(optimizer._eps_order(t, cond), np.concatenate(parts))


@pytest.mark.parametrize("cfg", [CisConfig(), CisConfig(j_levels=9, grid_step=0.1)])
@pytest.mark.parametrize("rate", [0.9, 0.8])
def test_batch_equals_single_searches(cfg, rate):
    # at J 9 and grid 0.1 the lattice filter alone leaves uneven start
    # counts, so one batch holds conditions of 4, 2 and 1 starts
    counts = [len(optimizer._starts(state_models(c), cfg)) for c in _MIXED]
    assert counts == ([11] * 7 if cfg == CisConfig() else [4, 1, 2, 1, 4, 4, 1])
    single = [_hex(cis_optimize(c, DEFAULT_PARAMS, 2624, rate, cfg)) for c in _MIXED]
    batch = cis_optimize_many(_MIXED, DEFAULT_PARAMS, 2624, rate, cfg)
    assert [_hex(r) for r in batch] == single
    block = tuple(_MIXED)
    for c, expected in zip(_MIXED, single):
        result = cis_optimize(c, DEFAULT_PARAMS, 2624, rate, cfg, block=block)
        assert _hex(result) == expected
        result[1].clear()  # the caller's copy; the block's batch keeps its own
    one, = cis_optimize_many(_MIXED[1:2], DEFAULT_PARAMS, 2624, rate, cfg)
    assert _hex(one) == single[1]
