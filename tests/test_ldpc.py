"""Code construction, encoding, and decoder tests."""

import hashlib

import numpy as np
import pytest

from flashopt.ldpc import (CodeSpec, LdpcCode, ParityMatrix, PRESETS,
                           build_code, check_messages, code_from_matrix,
                           encode, qc_expand, sp_decode, syndrome)

HAMMING_74 = np.array([[1, 1, 0, 1, 1, 0, 0],
                       [1, 0, 1, 1, 0, 1, 0],
                       [0, 1, 1, 1, 0, 0, 1]], dtype=np.uint8)


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
    pm = ParityMatrix.from_dense(h)
    assert np.array_equal(pm.dense(), h)
    assert np.array_equal(pm.col_weights(), [1, 1, 2, 1])
    assert np.array_equal(pm.row_weights(), [3, 2])


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
    assert np.all(code.h.col_weights() == 4)


def test_preset_regression_4k_qc():
    code = build_code("4k-qc", seed=0)
    assert code.n == 4544
    assert code.rank == 448
    assert code.info_len == 4096
    assert code.measured_rate == pytest.approx(0.9014, abs=5e-4)
    assert np.all(code.h.col_weights() == 5)


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
            assert not np.any(syndrome(code, cw))
            assert np.array_equal(cw[code.free_cols], info)


def test_encode_rejects_wrong_length():
    code = build_code("2k-qc", seed=0)
    with pytest.raises(ValueError):
        encode(code, np.zeros(code.info_len + 1, dtype=np.int64))


def test_syndrome_accepts_code_or_matrix():
    code = code_from_matrix(ParityMatrix.from_dense(HAMMING_74))
    cw = encode(code, np.array([1, 0, 1, 1]))
    assert not np.any(syndrome(code, cw))
    assert not np.any(syndrome(code.h, cw))
    flipped = cw.copy()
    flipped[3] ^= 1
    assert np.any(syndrome(code, flipped))


def test_hamming_corrects_every_single_flip():
    # LLR magnitude 2.0 matches a raw bit error rate around 0.12; on a
    # graph this short, belief propagation is only distance-1 reliable
    # when the channel confidence is consistent with one flip in seven.
    code = code_from_matrix(ParityMatrix.from_dense(HAMMING_74))
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
    pm = ParityMatrix.from_dense(h)
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
    pm = ParityMatrix.from_dense(h)
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
    pm = ParityMatrix.from_dense(h)
    v2c = np.array([0.0, 1.0, -2.0, 0.5])
    out = check_messages(v2c, pm)
    assert out[0] != 0.0
    assert np.allclose(out[1:], 0.0)


def test_decode_two_bit_repetition_sign_convention():
    # single check on two bits; strong positive LLRs mean both bits are 1
    pm = ParityMatrix.from_dense(np.array([[1, 1]], dtype=np.uint8))
    code = code_from_matrix(pm)
    bits, ok, _ = sp_decode(code, np.array([5.0, 5.0]))
    assert ok and np.array_equal(bits, [1, 1])
    bits, ok, _ = sp_decode(code, np.array([-5.0, -5.0]))
    assert ok and np.array_equal(bits, [0, 0])
    # conflicting evidence settles on the stronger side, parity intact
    bits, ok, _ = sp_decode(code, np.array([6.0, -1.0]), i_max=50)
    assert not np.any(syndrome(code, bits))


def test_decode_all_zero_llr_not_converged():
    code = code_from_matrix(ParityMatrix.from_dense(HAMMING_74))
    bits, ok, _ = sp_decode(code, np.zeros(7))
    assert not ok


def test_decode_rejects_wrong_length():
    code = code_from_matrix(ParityMatrix.from_dense(HAMMING_74))
    with pytest.raises(ValueError):
        sp_decode(code, np.zeros(8))


def test_decode_rejects_no_iterations():
    code = code_from_matrix(ParityMatrix.from_dense(HAMMING_74))
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
