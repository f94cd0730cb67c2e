"""Properties of the one numerical core over random conditions and thresholds,
of the CLI's config parser over random JSON values, and of the threshold,
model and dataset file formats and the encoder over random contents.

The transition matrix and the LLR tables are built from the same batch
routines the threshold search runs; these checks hold for any operating
point and any valid threshold set.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flashopt.channel import Condition, state_models
from flashopt.cli import FIELDS
from flashopt.fbl import info_iu
from flashopt import ldpc
from flashopt.ldpc import L_MAX, build_code, encode
from flashopt.mlp import (MlpModel, Sample, load_dataset, load_model,
                          save_dataset, save_model)
from flashopt.quantizer import (PAGE_STATES, ThresholdSet, input_tails, llr_table,
                                region_masses, transition_matrix)

conditions = st.builds(Condition, st.floats(0.0, 20000.0), st.floats(0.0, 1e6))
threshold_sets = st.lists(st.floats(0.01, 6.0), min_size=1, max_size=9,
                          unique=True).map(lambda v: ThresholdSet(tuple(sorted(v))))
cases = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@cases
@given(conditions, threshold_sets)
def test_transition_rows_are_distributions(cond, d):
    w = transition_matrix(state_models(cond), d)
    assert w.shape == (4, d.j_levels + 1)
    assert np.all(w >= 0.0)
    assert np.allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@cases
@given(conditions, threshold_sets)
def test_page_information_matches_search_batch(cond, d):
    # The search takes region masses of each page bit's mean state tail;
    # run_ccr averages the two states' rows of the transition matrix.  The
    # two round the masses differently, which near-empty or near-full
    # regions amplify, so I and U agree to 1e-12 relative, or to 1e-12
    # absolute (in bits, bits^2) where they are near 0.
    models = state_models(cond)
    half = np.array([0.5, 0.5])
    rows = transition_matrix(models, d)[PAGE_STATES].mean(axis=2)
    tails = region_masses(input_tails(d.as_array()[None, :], models, PAGE_STATES))
    for by_rows, by_tails in zip(info_iu(rows, half), info_iu(tails, half)):
        assert by_rows == pytest.approx(by_tails[:, 0], rel=1e-12, abs=1e-12)


@cases
@given(conditions, threshold_sets)
def test_llr_table_finite_and_clamped(cond, d):
    llr = llr_table(state_models(cond), d)
    assert llr.shape == (d.j_levels + 1, 2)
    assert np.all(np.isfinite(llr))
    assert np.all(np.abs(llr) <= L_MAX)


def _llr_loop(w, l_max):
    """Reference LLR table: one region and one page at a time."""
    out = np.zeros((w.shape[1], 2))
    for k in range(2):
        num = w[PAGE_STATES[k, 1]].sum(axis=0)
        den = w.sum(axis=0) - num
        for j in range(w.shape[1]):
            if num[j] <= 0.0 and den[j] <= 0.0:
                out[j, k] = 0.0
            elif den[j] <= 0.0:
                out[j, k] = l_max
            elif num[j] <= 0.0:
                out[j, k] = -l_max
            else:
                out[j, k] = min(max(math.log(num[j] / den[j]), -l_max), l_max)
    return out


@cases
@given(conditions, threshold_sets, st.sampled_from([2.5, L_MAX]))
def test_llr_table_equals_loop_reference(cond, d, l_max):
    models = state_models(cond)
    want = _llr_loop(transition_matrix(models, d), l_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ldpc, "L_MAX", l_max)
        assert np.array_equal(llr_table(models, d), want)


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


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def models(draw):
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))

    def arr(shape, elements=finite):
        return np.array(draw(st.lists(elements, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)

    return MlpModel(dims=dims, scale=draw(finite),
                    weights=[arr((a, b)) for a, b in zip(dims[:-1], dims[1:])],
                    biases=[arr((b,)) for b in dims[1:]],
                    x_shift=arr((dims[0],)), x_scale=arr((dims[0],), positive),
                    y_shift=arr((dims[-1],)), y_scale=arr((dims[-1],), positive))


def _arrays(model):
    return [model.x_shift, model.x_scale, model.y_shift, model.y_scale,
            *model.weights, *model.biases]


@cases
@given(models(), st.data())
def test_model_file_roundtrips_and_rejects_truncation(model, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.dims == model.dims
        assert np.float64(back.scale).tobytes() == np.float64(model.scale).tobytes()
        for a, b in zip(_arrays(back), _arrays(model)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        blob = path.read_bytes()
        path.write_bytes(blob + data.draw(st.binary(min_size=1, max_size=64), label="tail"))
        with pytest.raises(ValueError, match="trailing data"):
            load_model(path)
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")])
        with pytest.raises(ValueError):
            load_model(path)


threshold_values = st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                            min_size=1, max_size=12, unique=True).map(sorted)
line_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12) | st.sampled_from(
    ["1.5", " 2e0 ", "nan", "inf", "-1", "0", "3 # c", "#", "", "1_0", "0x1p0"])


@cases
@given(threshold_values)
def test_threshold_file_roundtrips_exactly(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.txt"
        ThresholdSet(tuple(values)).to_file(path)
        assert ThresholdSet.from_file(path).d == tuple(values)


@cases
@given(st.lists(line_text, max_size=8))
def test_threshold_file_lines_parse_to_a_valid_set_or_raise(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            d = ThresholdSet.from_file(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
        v = d.as_array()
        assert v.size >= 1 and np.all(np.isfinite(v)) and v[0] > 0
        assert np.all(np.diff(v) > 0)


@st.composite
def datasets(draw):
    j = draw(st.integers(1, 7))
    samples = []
    for _ in range(draw(st.integers(1, 5))):
        f = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=j + 1,
                                   max_size=j + 1)))
        label = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                              min_size=j, max_size=j, unique=True))
        samples.append(Sample(tuple(f / f.sum()), tuple(sorted(label))))
    return j, samples


@cases
@given(datasets())
def test_dataset_file_roundtrips_exactly(case):
    j, samples = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_dataset(samples, path)
        assert load_dataset(path, j) == samples


@cases
@given(st.binary(min_size=(2624 + 7) // 8, max_size=(2624 + 7) // 8))
def test_encoded_words_satisfy_every_check(raw):
    code = build_code("2k-qc")
    info = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:code.info_len]
    word = encode(code, info)
    assert np.array_equal(word[code.free_cols], info)
    assert not (code.h.dense().astype(np.int64) @ word % 2).any()
