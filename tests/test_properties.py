"""Properties of the one numerical core over random conditions and thresholds,
and of the CLI's config parser over random JSON values.

The transition matrix, the page channels and the LLR tables are built
from the same batch routines the threshold search runs; these checks
hold for any operating point and any valid threshold set.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flashopt.channel import Condition, state_models
from flashopt.cli import FIELDS
from flashopt.fbl import info_iu, info_variance, mutual_information
from flashopt.quantizer import (L_MAX, PAGE_STATES, ThresholdSet, input_tails,
                                llr_table, page_subchannel, region_masses,
                                transition_matrix)

conditions = st.builds(Condition, st.floats(0.0, 20000.0), st.floats(0.0, 1e6))
threshold_sets = st.lists(st.floats(0.01, 6.0), min_size=1, max_size=9,
                          unique=True).map(lambda v: ThresholdSet(tuple(sorted(v))))
cases = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@cases
@given(conditions, threshold_sets)
def test_transition_rows_are_distributions(cond, d):
    w = transition_matrix(state_models(cond), d).w
    assert w.shape == (4, d.j_levels + 1)
    assert np.all(w >= 0.0)
    assert np.allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@cases
@given(conditions, threshold_sets)
def test_page_information_matches_search_batch(cond, d):
    # The search takes region masses of each page bit's mean state tail;
    # the public route averages the two states' rows of the transition
    # matrix.  The two round the masses differently, which near-empty or
    # near-full regions amplify, so I and U agree to 1e-12 relative, or to
    # 1e-12 absolute (in bits, bits^2) where they are near 0.
    models = state_models(cond)
    ch = transition_matrix(models, d)
    w = region_masses(input_tails(d.as_array()[None, :], models, PAGE_STATES))
    i, u = info_iu(w, np.array([0.5, 0.5]))
    for k, page in enumerate(("msb", "lsb")):
        sub = page_subchannel(ch, page)
        assert mutual_information(sub) == pytest.approx(i[k, 0], rel=1e-12, abs=1e-12)
        assert info_variance(sub) == pytest.approx(u[k, 0], rel=1e-12, abs=1e-12)


@cases
@given(conditions, threshold_sets)
def test_llr_table_finite_and_clamped(cond, d):
    llr = llr_table(state_models(cond), d).llr
    assert llr.shape == (d.j_levels + 1, 2)
    assert np.all(np.isfinite(llr))
    assert np.all(np.abs(llr) <= L_MAX)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.sampled_from(["7", "-2.5e3", "0,100", "2k-qc,4k-qc", "cis", "mmi", "dnn"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=4),
    max_leaves=8)


def _of_kind(field, value) -> bool:
    return (isinstance(value, field.kind) and not isinstance(value, bool)
            and (not field.choices or value in field.choices))


@cases
@given(st.sampled_from(sorted(FIELDS)), json_values)
def test_config_values_parse_to_their_kind_or_name_the_key(key, value):
    field = FIELDS[key]
    try:
        parsed = field.parse(value)
    except ValueError as exc:
        assert key in str(exc)
        return
    if field.many:
        assert isinstance(parsed, tuple)
        assert all(_of_kind(field, v) for v in parsed)
    else:
        assert _of_kind(field, parsed)
