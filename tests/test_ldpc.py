"""Code construction, encoding, and decoder tests."""

import hashlib

import numpy as np
import pytest

from flashopt import ldpc
from flashopt.ldpc import (CodeSpec, ParityMatrix, PRESETS, _check_rule, build_code,
                           code_from_matrix, encode, qc_expand, sp_decode)


def checks(pm: ParityMatrix, bits) -> np.ndarray:
    """Parity of each check: the dense integer GF(2) product, which shares
    nothing with the decoder's slot layout."""
    return pm.dense().astype(np.int64) @ bits % 2


HAMMING_74 = np.array([[1, 1, 0, 1, 1, 0, 0],
                       [1, 0, 1, 1, 0, 1, 0],
                       [0, 1, 1, 1, 0, 0, 1]], dtype=np.uint8)


def col_weights(pm: ParityMatrix) -> np.ndarray:
    return np.bincount(pm.edge_var, minlength=pm.n_cols)


def dense_code(h):
    """The code of a dense 0/1 matrix, its spec read off the matrix."""
    h = np.asarray(h)
    spec = CodeSpec(name="test", n=h.shape[1], rate=1.0 - h.shape[0] / h.shape[1],
                    col_weight=int(h.sum(axis=0).max()))
    return code_from_matrix(ParityMatrix(*h.shape, *np.nonzero(h)), spec)


def check_messages(v2c, pm: ParityMatrix) -> np.ndarray:
    """The decoder's check rule on one edge-order vector of messages."""
    edge, var = pm.slots[:2]
    slots, out = np.full(var.shape, np.inf), np.empty(var.shape)
    slots.ravel()[edge] = v2c
    _check_rule(slots, out, *np.empty((2, *var.shape)), np.empty(var.shape, bool),
                np.empty(var.shape, np.uint64))
    return out.ravel()[edge]


def gf2_rank_bigint(h: np.ndarray) -> int:
    """Independent GF(2) rank via Python integer bit tricks."""
    rows = [int("".join(str(int(b)) for b in row), 2) for row in h]
    rank = 0
    for _ in range(len(rows)):
        rows = [r for r in rows if r]
        if not rows:
            break
        piv = max(rows)
        rows.remove(piv)
        top = piv.bit_length()
        rows = [r ^ piv if r.bit_length() == top else r for r in rows]
        rank += 1
    return rank


def test_parity_matrix_validation():
    with pytest.raises(ValueError):
        ParityMatrix(2, 2, np.array([0, 0]), np.array([0, 0]))  # duplicate edge
    with pytest.raises(ValueError):
        ParityMatrix(2, 2, np.array([0, 2]), np.array([0, 1]))  # check oob
    with pytest.raises(ValueError):
        ParityMatrix(2, 3, np.array([0, 1]), np.array([0, 1]))  # empty column


def test_dense_roundtrip_and_weights():
    h = np.array([[1, 0, 1, 1],
                  [0, 1, 1, 0]], dtype=np.uint8)
    pm = ParityMatrix(*h.shape, *np.nonzero(h))
    assert np.array_equal(pm.dense(), h)
    assert np.array_equal(col_weights(pm), [1, 1, 2, 1])
    assert np.array_equal(np.bincount(pm.edge_check, minlength=pm.n_rows), [3, 2])


def test_qc_expand_hand_oracle():
    shifts = np.array([[0, 2, -1],
                       [-1, 1, 3]])
    z = 4
    pm = qc_expand(shifts, z)
    dense = pm.dense()
    expect = np.zeros((8, 12), dtype=np.uint8)
    for (br, bc), s in np.ndenumerate(shifts):
        if s < 0:
            continue
        for i in range(z):
            expect[br * z + i, bc * z + (i + s) % z] = 1
    assert np.array_equal(dense, expect)


def test_qc_expand_validation():
    with pytest.raises(ValueError):
        qc_expand(np.array([[0, 4]]), 4)     # shift >= z
    with pytest.raises(ValueError):
        qc_expand(np.array([[-2, 0]]), 4)    # below -1
    with pytest.raises(ValueError):
        qc_expand(np.array([0, 1]), 4)       # not 2-D


def test_preset_regression_2k_qc():
    code = build_code("2k-qc", seed=0)
    assert code.n == 2624
    assert code.rank == 253
    assert code.info_len == 2371
    assert code.measured_rate == pytest.approx(0.9036, abs=5e-4)
    assert np.all(col_weights(code.h) == 4)


def test_preset_regression_4k_qc():
    code = build_code("4k-qc", seed=0)
    assert code.n == 4544
    assert code.rank == 448
    assert code.info_len == 4096
    assert code.measured_rate == pytest.approx(0.9014, abs=5e-4)
    assert np.all(col_weights(code.h) == 5)


def test_preset_regression_2k_random():
    code = build_code("2k-random", seed=0)
    assert code.n == 1998
    assert code.info_len == 1776
    assert abs(code.measured_rate - code.spec.rate) <= 0.005


def test_build_code_rejects_unknown_name():
    with pytest.raises(ValueError):
        build_code("3k-qc")


def test_rank_matches_independent_bigint_elimination():
    code = build_code("2k-qc", seed=0)
    assert gf2_rank_bigint(code.h.dense()) == code.rank


@pytest.mark.parametrize("name, seed, digest", [
    ("2k-qc", 0, "66fae5f0ee2d9f76"), ("2k-qc", 1, "922dfe10961e84c4"),
    ("4k-qc", 0, "56ab3cde1aeca22a"), ("4k-qc", 1, "52a07ddb73fea0f5"),
    ("2k-random", 0, "87950923a4366b66"), ("2k-random", 1, "34a32c5df853df14"),
])
def test_preset_matrix_is_pinned(name, seed, digest):
    h = build_code(name, seed=seed).h
    blob = h.edge_check.astype("<i8").tobytes() + h.edge_var.astype("<i8").tobytes()
    assert hashlib.sha256(blob).hexdigest().startswith(digest)


@pytest.mark.parametrize("name, seed, digest", [
    ("2k-qc", 0, "cf144b4aefa2a176"), ("2k-qc", 1, "5a228972d14c7955"),
    ("4k-qc", 0, "ea6178a5ba2c95d5"), ("4k-qc", 1, "c485fc3861d9aa50"),
    ("2k-random", 0, "78cd223cf0f7da29"), ("2k-random", 1, "3013e486165eedff"),
])
def test_preset_encoder_tables_are_pinned(name, seed, digest):
    code = build_code(name, seed=seed)
    assert code.parity_map.shape == (code.rank, -(-code.info_len // 8))
    blob = (code.pivot_cols.astype("<i8").tobytes() + code.free_cols.astype("<i8").tobytes()
            + code.parity_map.tobytes())
    assert hashlib.sha256(blob).hexdigest().startswith(digest)


def test_qc_presets_free_of_four_cycles():
    # overlap of any two rows of H must be at most one column; the QC shift
    # table and the PEG edge test each avoid four-cycles their own way, and
    # this guards both
    for name in PRESETS:
        h = build_code(name, seed=0).h.dense().astype(np.int64)
        gram = h @ h.T
        np.fill_diagonal(gram, 0)
        assert gram.max() <= 1, name


def test_encode_zero_syndrome_and_systematic():
    rng = np.random.default_rng(7)
    for name in PRESETS:
        code = build_code(name, seed=0)
        for _ in range(10):
            info = rng.integers(0, 2, code.info_len)
            cw = encode(code, info)
            assert not np.any(checks(code.h, cw))
            assert np.array_equal(cw[code.free_cols], info)


def test_encode_rejects_wrong_length():
    code = build_code("2k-qc", seed=0)
    with pytest.raises(ValueError):
        encode(code, np.zeros(code.info_len + 1, dtype=np.int64))


def test_hamming_corrects_every_single_flip():
    # LLR magnitude 2.0 matches a raw bit error rate around 0.12; on a
    # graph this short, belief propagation is only distance-1 reliable
    # when the channel confidence is consistent with one flip in seven.
    code = dense_code(HAMMING_74)
    for info_val in range(16):
        info = np.array([(info_val >> k) & 1 for k in range(4)])
        cw = encode(code, info)
        for flip in range(7):
            rx = cw.copy()
            rx[flip] ^= 1
            llr = np.where(rx == 1, 2.0, -2.0)
            bits, ok, _ = sp_decode(code, llr, i_max=50)
            assert ok
            assert np.array_equal(bits, cw), (info_val, flip)


def test_check_messages_brute_force_small():
    h = np.array([[1, 1, 1, 0],
                  [0, 1, 1, 1]], dtype=np.uint8)
    pm = ParityMatrix(*h.shape, *np.nonzero(h))
    rng = np.random.default_rng(3)
    v2c = rng.normal(0.0, 2.0, pm.edge_var.size)
    got = check_messages(v2c, pm)
    t = np.tanh(0.5 * v2c)
    for e in range(pm.edge_var.size):
        ci = pm.edge_check[e]
        others = [k for k in range(pm.edge_var.size)
                  if pm.edge_check[k] == ci and k != e]
        expect = 2.0 * np.arctanh(np.prod(t[others]))
        assert got[e] == pytest.approx(expect, rel=1e-12)


def test_check_messages_sign_parity():
    # flipping one incoming sign flips every other outgoing message's sign
    h = np.ones((1, 5), dtype=np.uint8)
    pm = ParityMatrix(*h.shape, *np.nonzero(h))
    rng = np.random.default_rng(1)
    v2c = rng.normal(0.0, 1.5, 5)
    base = check_messages(v2c, pm)
    mod = v2c.copy()
    mod[2] = -mod[2]
    out = check_messages(mod, pm)
    for e in range(5):
        if e == 2:
            assert out[e] == pytest.approx(base[e], rel=1e-12)
        else:
            assert out[e] == pytest.approx(-base[e], rel=1e-12)


def test_check_messages_zero_input_blocks_others():
    h = np.ones((1, 4), dtype=np.uint8)
    pm = ParityMatrix(*h.shape, *np.nonzero(h))
    v2c = np.array([0.0, 1.0, -2.0, 0.5])
    out = check_messages(v2c, pm)
    assert out[0] != 0.0
    assert np.allclose(out[1:], 0.0)


def test_decode_two_bit_repetition_sign_convention():
    # single check on two bits; strong positive LLRs mean both bits are 1
    code = dense_code(np.array([[1, 1]], dtype=np.uint8))
    bits, ok, _ = sp_decode(code, np.array([5.0, 5.0]))
    assert ok and np.array_equal(bits, [1, 1])
    bits, ok, _ = sp_decode(code, np.array([-5.0, -5.0]))
    assert ok and np.array_equal(bits, [0, 0])
    # conflicting evidence settles on the stronger side, parity intact
    bits, ok, _ = sp_decode(code, np.array([6.0, -1.0]), i_max=50)
    assert not np.any(checks(code.h, bits))


def test_decode_all_zero_llr_not_converged():
    code = dense_code(HAMMING_74)
    bits, ok, _ = sp_decode(code, np.zeros(7))
    assert not ok


def test_decode_rejects_wrong_length():
    code = dense_code(HAMMING_74)
    with pytest.raises(ValueError):
        sp_decode(code, np.zeros(8))


def test_decode_rejects_no_iterations():
    code = dense_code(HAMMING_74)
    for i_max in (0, -1):
        with pytest.raises(ValueError, match="i_max"):
            sp_decode(code, np.full(7, 3.0), i_max=i_max)


def test_decode_deterministic_iterations():
    code = build_code("2k-qc", seed=0)
    rng = np.random.default_rng(4)
    info = rng.integers(0, 2, code.info_len)
    cw = encode(code, info)
    # BPSK-ish noisy LLRs around the codeword
    llr = (2.0 * cw - 1.0) * 3.0 + rng.normal(0.0, 1.8, code.n)
    out1 = sp_decode(code, llr)
    out2 = sp_decode(code, llr)
    assert np.array_equal(out1[0], out2[0])
    assert out1[1:] == out2[1:]


# -- the slot-layout decoder against the edge-order one it replaced ----------

_LIM = 1.0 - 1e-15


def _edge_check_messages(v2c, pm):
    """Frozen copy of the edge-order check rule: per-check bincount sums."""
    t = np.tanh(0.5 * np.asarray(v2c, dtype=float))
    edge_check, n_rows = pm.edge_check, pm.n_rows
    mag = np.abs(t)
    zero = mag == 0.0
    logmag = np.where(zero, 0.0, np.log(np.where(zero, 1.0, mag)))
    neg = t < 0.0
    per_check_log = np.bincount(edge_check, weights=logmag, minlength=n_rows)
    per_check_zero = np.bincount(edge_check, weights=zero.astype(float), minlength=n_rows)
    per_check_neg = np.bincount(edge_check, weights=neg.astype(float), minlength=n_rows)
    zeros_among_others = per_check_zero[edge_check] - zero
    mag_out = np.exp(per_check_log[edge_check] - logmag)
    mag_out[zeros_among_others > 0] = 0.0
    neg_among_others = per_check_neg[edge_check] - neg
    sign = 1.0 - 2.0 * (neg_among_others.astype(np.int64) & 1)
    return 2.0 * np.arctanh(np.clip(sign * mag_out, -_LIM, _LIM))


def _edge_sp_decode(code, llrs, i_max=25, clamp=30.0):
    """Frozen copy of the edge-order flooding decoder, bincount syndrome."""
    pm = code.h
    intr = np.clip(-np.asarray(llrs, dtype=float), -clamp, clamp)
    v2c = intr[pm.edge_var]
    for it in range(1, int(i_max) + 1):
        c2v = np.clip(_edge_check_messages(v2c, pm), -clamp, clamp)
        total = intr + np.bincount(pm.edge_var, weights=c2v, minlength=pm.n_cols)
        v2c = np.clip(total[pm.edge_var] - c2v, -clamp, clamp)
        hard = (total < 0.0).astype(np.uint8)
        odd = np.bincount(pm.edge_check, weights=hard[pm.edge_var],
                          minlength=pm.n_rows).astype(np.int64) & 1
        if not np.any(odd) and np.all(total != 0.0):
            return hard, True, it
    return hard, False, int(i_max)


def _irregular_code(seed: int):
    """A random code whose rows and columns both vary in weight."""
    rng = np.random.default_rng(seed)
    h = rng.random((40, 120)) < 0.06
    h[rng.integers(0, 40, 120), np.arange(120)] = True
    return dense_code(h)


def _slot_codes():
    """(name, code): no pads, row pads (two presets), row and column pads."""
    codes = [(name, build_code(name, seed=0)) for name in ("2k-qc", "4k-qc", "2k-random")]
    codes.append(("irregular", _irregular_code(11)))
    w = [(np.bincount(code.h.edge_check, minlength=code.h.n_rows), col_weights(code.h))
         for _, code in codes]
    assert np.ptp(w[0][0]) == 0 and np.ptp(w[1][0]) > 0 and np.ptp(w[2][0]) > 0
    assert np.ptp(w[3][0]) > 0 and np.ptp(w[3][1]) > 0
    return codes


def _noisy_llrs(code, rng, sigma, zeros):
    """LLRs of a random codeword sent as +-1 through Gaussian noise, with a
    share `zeros` of them erased to exactly 0."""
    cw = encode(code, rng.integers(0, 2, code.info_len))
    llr = 2.0 * ((2.0 * cw - 1.0) + rng.normal(0.0, sigma, code.n)) / sigma**2
    llr[rng.random(code.n) < zeros] = 0.0
    return llr


def test_slot_decoder_matches_edge_order_decoder_bit_for_bit(monkeypatch):
    # (bits, converged, iterations) of every decode, from one iteration to
    # the waterfall and beyond, with exact zeros among the LLRs; clamp 3
    # makes any pad that is not +inf move its check's messages by far more
    # than one ulp
    rng = np.random.default_rng(12)
    outcomes = set()
    for name, code in _slot_codes():
        for sigma, zeros, clamp in ((0.42, 0.0, 30.0), (0.47, 0.0, 30.0), (0.5, 0.01, 30.0),
                                    (0.7, 0.05, 30.0), (0.45, 0.1, 3.0)):
            llr = _noisy_llrs(code, rng, sigma, zeros)
            monkeypatch.setattr(ldpc, "L_MAX", clamp)  # read at call time
            for i_max in (1, 3, 25):
                got = sp_decode(code, llr, i_max=i_max)
                expect = _edge_sp_decode(code, llr, i_max=i_max, clamp=clamp)
                assert np.array_equal(got[0], expect[0]), (name, sigma, i_max)
                assert got[1:] == expect[1:], (name, sigma, i_max)
                outcomes.add(got[1:])
    assert {(True, 1), (True, 2), (False, 25)} <= outcomes
    assert any(ok and it > 3 for ok, it in outcomes)


def test_slot_check_rule_matches_edge_order_bit_for_bit():
    # the per-check log sums run in edge order, as bincount adds them; a
    # pairwise sum (np.add.reduceat on 8 or more terms) differs in the last
    # bits, which this comparison of bit patterns catches
    rng = np.random.default_rng(13)
    for name, code in _slot_codes():
        size = code.h.edge_var.size
        for zeros in (0.0, 0.01, 0.3):
            v2c = rng.normal(0.0, 4.0, size) * 10.0 ** rng.integers(-3, 2, size)
            v2c[rng.random(size) < zeros] = 0.0
            got = check_messages(v2c, code.h)
            expect = _edge_check_messages(v2c, code.h)
            assert np.array_equal(got.view(np.int64), expect.view(np.int64)), (name, zeros)
