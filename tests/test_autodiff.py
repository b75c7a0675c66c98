"""Unit tests for the complex tape autodiff.

Closed-form gradient checks come first (they bootstrap the probe loss used
by the generic finite-difference harness), then per-op FD sweeps over many
seeds, then tape semantics and error handling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtmix import autodiff as ad
from qtmix.errors import ArityError, AutodiffError, LabelError, ShapeError

from helpers import check_op_gradients, fd_gradients, probe_loss, rand_complex


# ---------------------------------------------------------------------------
# closed forms (bootstrap)

def test_square_norm_gradient_closed_form():
    # L = |z|^2 has dL/dx = 2x, dL/dy = 2y, i.e. grad = 2z.
    z = np.array([1.5 - 0.5j, -0.25 + 2.0j, 0.75 + 0.0j])
    with ad.Tape():
        p = ad.parameter(z)
        loss = ad.square_norm(p)
        ad.backward(loss)
    assert np.allclose(p.grad, 2 * z, atol=1e-14)


def test_mul_sum_real_gradient_closed_form():
    # L = Re(w * a * b) for scalars => grad_a = conj(w * b).
    w = 0.7 - 1.1j
    a = np.array([0.3 + 0.4j])
    b = np.array([-1.2 + 0.9j])
    with ad.Tape():
        pa = ad.parameter(a)
        loss = ad.real_part(ad.sumall(ad.mul(pa, ad.tensor(b * w))))
        ad.backward(loss)
    assert np.allclose(pa.grad, np.conj(w * b), atol=1e-14)


# ---------------------------------------------------------------------------
# matvec against a brute-force oracle

def test_matvec_identity():
    v = np.array([1 + 1j, 2 - 1j, 0.5j, -3.0])
    out = ad.matvec(ad.tensor(np.eye(4)), ad.tensor(v))
    assert np.array_equal(out.values, v)


def test_matvec_permutation():
    perm = np.zeros((4, 4))
    order = [2, 0, 3, 1]
    for i, j in enumerate(order):
        perm[i, j] = 1.0
    v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    out = ad.matvec(ad.tensor(perm), ad.tensor(v))
    assert np.array_equal(out.values, v[order])


def test_matvec_against_bruteforce_oracle():
    rng = np.random.default_rng(7)
    m = rand_complex(rng, (4, 4))
    v = rand_complex(rng, (4,))
    expected = np.zeros(4, dtype=complex)
    for i in range(4):
        for j in range(4):
            expected[i] += m[i, j] * v[j]
    out = ad.matvec(ad.tensor(m), ad.tensor(v))
    assert np.max(np.abs(out.values - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# finite-difference sweeps, one op at a time

def _seeds(n=20):
    return [np.random.default_rng(1000 + s) for s in range(n)]


@pytest.mark.parametrize("seed", range(20))
def test_fd_elementwise_ops(seed):
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, (5,))
    b = rand_complex(rng, (5,))
    check_op_gradients(lambda ls: ad.add(ls[0], ls[1]), [ad.tensor(a), ad.tensor(b)], rng)
    check_op_gradients(lambda ls: ad.sub(ls[0], ls[1]), [ad.tensor(a), ad.tensor(b)], rng)
    check_op_gradients(lambda ls: ad.mul(ls[0], ls[1]), [ad.tensor(a), ad.tensor(b)], rng)
    c = rand_complex(rng, (5,))
    check_op_gradients(lambda ls: ad.mul_const(ls[0], c), [ad.tensor(a)], rng)
    check_op_gradients(lambda ls: ad.add_const(ls[0], 1.5 - 0.5j), [ad.tensor(a)], rng)
    check_op_gradients(lambda ls: ad.real_part(ls[0]), [ad.tensor(a)], rng)


@pytest.mark.parametrize("seed", range(20))
def test_fd_scalar_ops(seed):
    rng = np.random.default_rng(200 + seed)
    s = rand_complex(rng, ())
    t = rand_complex(rng, (4,))
    check_op_gradients(lambda ls: ad.scalar_mul(ls[0], ls[1]), [ad.tensor(s), ad.tensor(t)], rng)
    check_op_gradients(lambda ls: ad.sumall(ls[0]), [ad.tensor(t)], rng)
    check_op_gradients(lambda ls: ad.square_norm(ls[0]), [ad.tensor(t)], rng)
    base = ad.tensor(np.asarray(1.3 + rng.random()))
    for p in (-1.0, -0.5, 0.5, 2.0):
        check_op_gradients(lambda ls, p=p: ad.spow(ls[0], p), [base], rng,
                           complex_leaves=set())


@pytest.mark.parametrize("seed", range(20))
def test_fd_absval(seed):
    rng = np.random.default_rng(400 + seed)
    # keep magnitudes bounded away from the |z| = 0 kink
    a = rand_complex(rng, (6,))
    a += np.sign(a.real + 1e-9) * 0.5 + 0.5j * np.sign(a.imag + 1e-9)
    check_op_gradients(lambda ls: ad.absval(ls[0]), [ad.tensor(a)], rng)


@pytest.mark.parametrize("seed", range(20))
def test_fd_linear_algebra(seed):
    rng = np.random.default_rng(600 + seed)
    m = rand_complex(rng, (3, 4))
    v = rand_complex(rng, (4,))
    check_op_gradients(lambda ls: ad.matvec(ls[0], ls[1]), [ad.tensor(m), ad.tensor(v)], rng)
    a = rand_complex(rng, (3, 4))
    b = rand_complex(rng, (4, 2))
    check_op_gradients(lambda ls: ad.matmul(ls[0], ls[1]), [ad.tensor(a), ad.tensor(b)], rng)
    check_op_gradients(lambda ls: ad.transpose(ls[0]), [ad.tensor(a)], rng)
    check_op_gradients(lambda ls: ad.reshape(ls[0], (2, 6)), [ad.tensor(a)], rng)


@pytest.mark.parametrize("seed", range(20))
def test_fd_weighted_sum_and_collapse(seed):
    rng = np.random.default_rng(800 + seed)
    k = int(rng.integers(1, 5))
    coeffs = rand_complex(rng, (k,))
    terms = [rand_complex(rng, (6,)) for _ in range(k)]
    check_op_gradients(
        lambda ls: ad.weighted_sum(ls[0], ls[1:]),
        [ad.tensor(coeffs)] + [ad.tensor(t) for t in terms], rng)
    rows = rand_complex(rng, (k, 6))
    check_op_gradients(lambda ls: ad.collapse_rows(ls[0], ls[1]),
                       [ad.tensor(coeffs), ad.tensor(rows)], rng)


@pytest.mark.parametrize("seed", range(20))
def test_fd_structural_ops(seed):
    rng = np.random.default_rng(1000 + seed)
    table = rand_complex(rng, (7, 3))
    idx = rng.integers(0, 7, size=5)
    check_op_gradients(lambda ls: ad.take_rows(ls[0], idx), [ad.tensor(table)], rng)
    vec = rand_complex(rng, (8,))
    check_op_gradients(lambda ls: ad.take_rows(ls[0], idx), [ad.tensor(vec[:7])], rng)
    check_op_gradients(lambda ls: ad.slice_vec(ls[0], 2, 6), [ad.tensor(vec)], rng)
    check_op_gradients(lambda ls: ad.broadcast_rows(ls[0], 4), [ad.tensor(vec)], rng)


def _scatter_both_ways(buf_shape, idx, rng):
    # addends of mixed magnitude, so a change of summation order shows
    g = rand_complex(rng, idx.shape + buf_shape[1:]) * 10.0 ** rng.integers(
        -8, 9, size=idx.shape + buf_shape[1:])
    want = np.zeros(buf_shape, dtype=complex)
    np.add.at(want, idx, g)
    got = np.zeros(buf_shape, dtype=complex)
    ad._scatter_rows(got, idx, g)
    return want, got


@pytest.mark.parametrize("buf_shape", [(5,), (5, 3)])
@pytest.mark.parametrize("idx_shape", [(40,), (8, 6)])
def test_scatter_rows_matches_add_at_bitwise(buf_shape, idx_shape):
    rng = np.random.default_rng(17)
    idx = rng.integers(0, buf_shape[0], size=idx_shape)   # every id repeats
    want, got = _scatter_both_ways(buf_shape, idx, rng)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 9), width=st.integers(0, 4),
       idx_shape=st.lists(st.integers(0, 6), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_scatter_rows_matches_add_at_property(rows, width, idx_shape, seed):
    rng = np.random.default_rng(seed)
    buf_shape = (rows,) if width == 0 else (rows, width)
    idx = rng.integers(0, rows, size=tuple(idx_shape))
    want, got = _scatter_both_ways(buf_shape, idx, rng)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 60, 1 << 16])
def test_row_outer_sum_matches_product(monkeypatch, chunk):
    # one row per chunk, chunks ending mid-batch, one chunk for all rows
    rng = np.random.default_rng(23)
    a, b = rand_complex(rng, (37, 4)), rand_complex(rng, (37, 3))
    monkeypatch.setattr(ad, "_OUTER_CHUNK", chunk)
    got = ad._row_outer_sum(a, b)
    assert got.shape == (4, 3)
    assert np.max(np.abs(got - a.T @ b)) <= 1e-12
    assert np.array_equal(ad._row_outer_sum(a[:0], b[:0]), np.zeros((4, 3)))


@pytest.mark.parametrize("seed", range(10))
def test_fd_batched_ops(seed):
    rng = np.random.default_rng(1100 + seed)
    x = rand_complex(rng, (3, 4))
    m = rand_complex(rng, (2, 4))
    check_op_gradients(lambda ls: ad.matvec(ls[0], ls[1]), [ad.tensor(m), ad.tensor(x)], rng)
    a3 = rand_complex(rng, (3, 2, 4))
    b = rand_complex(rng, (4, 5))
    check_op_gradients(lambda ls: ad.matmul(ls[0], ls[1]), [ad.tensor(a3), ad.tensor(b)], rng)
    bias = rand_complex(rng, (4,))
    check_op_gradients(lambda ls: ad.add(ls[0], ls[1]), [ad.tensor(x), ad.tensor(bias)], rng)
    check_op_gradients(lambda ls: ad.add(ls[0], ls[1]),
                       [ad.tensor(x), ad.tensor(rand_complex(rng, ()))], rng)
    s = rand_complex(rng, (3,))
    check_op_gradients(lambda ls: ad.scalar_mul(ls[0], ls[1]), [ad.tensor(s), ad.tensor(x)], rng)
    check_op_gradients(lambda ls: ad.sum_last(ls[0]), [ad.tensor(x)], rng)
    check_op_gradients(lambda ls: ad.square_norm(ls[0]), [ad.tensor(x)], rng)
    base = ad.tensor(1.3 + rng.random(3))
    check_op_gradients(lambda ls: ad.spow(ls[0], -0.5), [base], rng, complex_leaves=set())
    counts = [2, 1, 3]
    rows = rand_complex(rng, (6, 4))
    check_op_gradients(lambda ls: ad.segment_sum(ls[0], counts), [ad.tensor(rows)], rng)
    scores = rng.standard_normal(6)
    check_op_gradients(lambda ls: ad.softmax(ls[0], counts), [ad.tensor(scores)], rng,
                       complex_leaves=set())
    logits = rng.standard_normal((3, 4))
    check_op_gradients(lambda ls: ad.cross_entropy(ls[0], [1, 0, 3]), [ad.tensor(logits)],
                       rng, complex_leaves=set())
    table = rand_complex(rng, (7, 3))
    idx = rng.integers(0, 7, size=(2, 4))
    check_op_gradients(lambda ls: ad.take_rows(ls[0], idx), [ad.tensor(table)], rng)
    mask = np.array([[True, False, True], [False, False, True]])
    coeffs = rand_complex(rng, (2, 3))[mask]
    kept = rand_complex(rng, (3, 4))
    check_op_gradients(lambda ls: ad.collapse_rows(ls[0], ls[1], mask),
                       [ad.tensor(coeffs), ad.tensor(kept)], rng)


@pytest.mark.parametrize("shape", [(), (3,)])
def test_segment_sum_independent_of_padding_bitwise(shape):
    # a run's sum must not depend on how long the other runs of its batch are
    rng = np.random.default_rng(5)
    for length in range(2, 8):
        run = rng.random((length,) + shape) + 1j * rng.random((length,) + shape)
        alone = ad.segment_sum(ad.tensor(run), [length]).values[0]
        for longest in (8, 9, 12, 20):
            other = rng.random((longest,) + shape)
            batch = ad.segment_sum(ad.tensor(np.concatenate([other, run])), [longest, length])
            assert np.array_equal(alone, batch.values[1]), (length, longest)


def test_softmax_segments_match_separate_softmaxes():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(7)
    seg = ad.softmax(ad.tensor(x), [3, 4])
    assert np.allclose(seg.values[:3], ad.softmax(ad.tensor(x[:3])).values, atol=1e-15)
    assert np.allclose(seg.values[3:], ad.softmax(ad.tensor(x[3:])).values, atol=1e-15)


@pytest.mark.parametrize("seed", range(20))
def test_fd_nonlinearities(seed):
    rng = np.random.default_rng(1200 + seed)
    x = rng.standard_normal(6)
    x[np.abs(x) < 0.05] = 0.5   # stay away from the relu kink
    check_op_gradients(lambda ls: ad.relu(ls[0]), [ad.tensor(x)], rng,
                       complex_leaves=set())
    check_op_gradients(lambda ls: ad.tanh(ls[0]), [ad.tensor(x)], rng,
                       complex_leaves=set())
    z = 0.5 * rand_complex(rng, (6,))
    check_op_gradients(lambda ls: ad.tanh(ls[0]), [ad.tensor(z)], rng)
    check_op_gradients(lambda ls: ad.softmax(ls[0]), [ad.tensor(x)], rng,
                       complex_leaves=set())


@pytest.mark.parametrize("seed", range(20))
def test_fd_cross_entropy(seed):
    rng = np.random.default_rng(1400 + seed)
    logits = rng.standard_normal(4)
    label = int(rng.integers(0, 4))
    check_op_gradients(lambda ls: ad.cross_entropy(ls[0], label),
                       [ad.tensor(logits)], rng, complex_leaves=set())


def test_cross_entropy_value():
    # uniform logits over C classes cost log(C)
    logits = ad.tensor(np.zeros(4))
    loss = ad.cross_entropy(logits, 2)
    assert loss.real_item() == pytest.approx(np.log(4.0))


# ---------------------------------------------------------------------------
# tape semantics

def test_weighted_sum_picks_single_term():
    rng = np.random.default_rng(3)
    t0, t1 = rand_complex(rng, (5,)), rand_complex(rng, (5,))
    out = ad.weighted_sum(ad.tensor([1.0, 0.0]), [ad.tensor(t0), ad.tensor(t1)])
    assert np.array_equal(out.values, t0)


def test_weighted_sum_joint_permutation_bitwise():
    rng = np.random.default_rng(11)
    k = 6
    coeffs = rand_complex(rng, (k,))
    terms = [rand_complex(rng, (8,)) for _ in range(k)]
    perm = rng.permutation(k)
    a = ad.weighted_sum(ad.tensor(coeffs), [ad.tensor(t) for t in terms])
    b = ad.weighted_sum(ad.tensor(coeffs[perm]), [ad.tensor(terms[p]) for p in perm])
    assert np.array_equal(a.values, b.values)


def test_collapse_rows_joint_permutation_bitwise():
    rng = np.random.default_rng(12)
    coeffs = rand_complex(rng, (5,))
    rows = rand_complex(rng, (5, 8))
    perm = rng.permutation(5)
    a = ad.collapse_rows(ad.tensor(coeffs), ad.tensor(rows))
    b = ad.collapse_rows(ad.tensor(coeffs[perm]), ad.tensor(rows[perm]))
    assert np.array_equal(a.values, b.values)


def spread_rows(rng, shape):
    """Complex rows whose entries span twelve decades, so that the order of
    their sum shows in its bits."""
    return rand_complex(rng, shape) * 10.0 ** rng.integers(-6, 6, size=shape)


def assert_collapse_permutation_bitwise(coeffs, rows, trials=30, seed=0):
    rng = np.random.default_rng(seed)
    base = ad.collapse_rows(ad.tensor(coeffs), ad.tensor(rows)).values
    for _ in range(trials):
        perm = rng.permutation(len(coeffs))
        out = ad.collapse_rows(ad.tensor(coeffs[perm]), ad.tensor(rows[perm])).values
        assert np.array_equal(base, out), perm


def test_collapse_rows_shared_coefficient_joint_permutation_bitwise():
    # every row carries one coefficient, so only the rows' values order the sum
    rng = np.random.default_rng(40)
    rows = spread_rows(rng, (9, 12))
    assert_collapse_permutation_bitwise(np.full(9, 0.3 - 0.2j), rows)


def test_collapse_rows_real_part_tie_joint_permutation_bitwise():
    # two coefficients share a real part only; the imaginary part orders them
    rng = np.random.default_rng(41)
    coeffs = -1.0 - rng.random(9) + 1j * rng.standard_normal(9)   # real parts below -1
    coeffs[5], coeffs[7] = 0.25 + 1.5j, 0.25 - 0.5j
    coeffs[2], coeffs[3] = 0.75 + 0.5j, 0.75 + 0.125j
    assert_collapse_permutation_bitwise(coeffs, spread_rows(rng, (9, 12)))


def test_collapse_rows_tie_free_window_beside_tied_window_bitwise():
    # window 0 ties on every coefficient, window 1 on none: in one batch,
    # each gives its own bits alone, whatever the order of window 0's rows
    rng = np.random.default_rng(42)
    n, m = 7, 12
    tied_c, tied_rows = np.full(n, 0.5 + 0.25j), spread_rows(rng, (n, m))
    free_c, free_rows = rand_complex(rng, (n,)), spread_rows(rng, (n, m))
    free_alone = ad.collapse_rows(ad.tensor(free_c), ad.tensor(free_rows)).values
    tied_alone = ad.collapse_rows(ad.tensor(tied_c), ad.tensor(tied_rows)).values
    mask = np.ones((2, n), dtype=bool)
    for _ in range(20):
        perm = rng.permutation(n)
        coeffs = np.concatenate([tied_c[perm], free_c])
        rows = np.concatenate([tied_rows[perm], free_rows])
        out = ad.collapse_rows(ad.tensor(coeffs), ad.tensor(rows), mask).values
        assert np.array_equal(out[1], free_alone)
        assert np.array_equal(out[0], tied_alone), perm


def test_collapse_rows_masked_out_window_is_exact_zero():
    # an empty window first, in the middle and last: a segment reduction
    # would hand it the next window's first row, or run past the end
    rng = np.random.default_rng(43)
    mask = np.array([[False, False, False], [True, False, True],
                     [False, False, False], [False, True, True],
                     [False, False, False]])
    coeffs = rand_complex(rng, mask.shape)
    rows = rand_complex(rng, (int(mask.sum()), 4))
    out = ad.collapse_rows(ad.tensor(coeffs[mask]), ad.tensor(rows), mask).values
    for w in (0, 2, 4):
        assert np.all(out[w] == 0)
        assert not np.any(np.signbit(out[w].real)) and not np.any(np.signbit(out[w].imag))
    for w, (lo, hi) in ((1, (0, 2)), (3, (2, 4))):
        alone = ad.collapse_rows(ad.tensor(coeffs[w][mask[w]]), ad.tensor(rows[lo:hi])).values
        assert np.array_equal(out[w], alone)
    none = ad.collapse_rows(ad.tensor(coeffs[:0, 0]), ad.tensor(np.zeros((0, 4))),
                            mask & False).values
    assert none.shape == (5, 4) and np.all(none == 0) and not np.any(np.signbit(none.real))


def test_collapse_rows_one_row_window_is_its_term():
    rng = np.random.default_rng(44)
    coeffs, rows = rand_complex(rng, (3,)), rand_complex(rng, (3, 8))
    terms = coeffs[:, None] * rows
    alone = ad.collapse_rows(ad.tensor(coeffs[:1]), ad.tensor(rows[:1])).values
    assert np.array_equal(alone, terms[0])
    mask = np.array([[False, True, False], [True, False, True]])
    out = ad.collapse_rows(ad.tensor(coeffs), ad.tensor(rows), mask).values
    assert np.array_equal(out[0], terms[0])


def test_collapse_rows_matches_per_window_sum():
    rng = np.random.default_rng(47)
    mask = rng.random((6, 9)) < 0.7
    coeffs = rand_complex(rng, mask.shape)
    coeffs[2, :] = 0.5                      # one window ties on every coefficient
    rows = rand_complex(rng, (int(mask.sum()), 16))
    out = ad.collapse_rows(ad.tensor(coeffs[mask]), ad.tensor(rows), mask).values
    win = np.nonzero(mask)[0]
    for w in range(mask.shape[0]):
        want = (coeffs[w][mask[w]][:, None] * rows[win == w]).sum(axis=0)
        assert np.allclose(out[w], want, rtol=0, atol=1e-13), w


def test_collapse_rows_mask_forms_agree_bitwise():
    rng = np.random.default_rng(45)
    coeffs, rows = rand_complex(rng, (6,)), spread_rows(rng, (6, 8))
    plain = ad.collapse_rows(ad.tensor(coeffs), ad.tensor(rows)).values
    one = ad.collapse_rows(ad.tensor(coeffs), ad.tensor(rows), np.ones((1, 6), bool)).values
    assert one.shape == (1, 8) and np.array_equal(plain, one[0])
    mask = rng.random((4, 5)) < 0.6
    mask[2] = False
    full = rand_complex(rng, mask.shape)
    kept = spread_rows(rng, (int(mask.sum()), 8))
    batch = ad.collapse_rows(ad.tensor(full[mask]), ad.tensor(kept), mask).values
    win = np.nonzero(mask)[0]
    for w in range(mask.shape[0]):
        if not mask[w].any():
            assert np.all(batch[w] == 0)
            continue
        alone = ad.collapse_rows(ad.tensor(full[w][mask[w]]), ad.tensor(kept[win == w])).values
        assert np.array_equal(batch[w], alone), w


def test_collapse_rows_rejects_grid_coefficients():
    # one coefficient per masked-in entry is the only form under a mask
    rng = np.random.default_rng(48)
    mask = np.array([[True, False, True], [False, True, True]])
    rows = ad.tensor(rand_complex(rng, (4, 3)))
    with pytest.raises(ShapeError):
        ad.collapse_rows(ad.tensor(rand_complex(rng, mask.shape)), rows, mask)
    with pytest.raises(ShapeError):
        ad.collapse_rows(ad.tensor(rand_complex(rng, (3,))), rows, mask)


def test_collapse_rows_does_not_value_sort_amplitudes(monkeypatch):
    # the collapse orders rows by coefficient; the padded amplitude sort
    # stays with weighted_sum and segment_sum
    def refuse(padded):
        raise AssertionError("padded sort reached")

    monkeypatch.setattr(ad, "_padded_sum", refuse)
    rng = np.random.default_rng(46)
    mask = np.array([[True, True, False], [True, True, True]])
    ad.collapse_rows(ad.tensor(rand_complex(rng, (5,))),
                     ad.tensor(rand_complex(rng, (5, 4))), mask)
    with pytest.raises(AssertionError, match="padded sort"):
        ad.weighted_sum(ad.tensor([1.0, 2.0]), [ad.tensor([1.0]), ad.tensor([3.0])])
    with pytest.raises(AssertionError, match="padded sort"):
        ad.segment_sum(ad.tensor(rand_complex(rng, (3, 2))), [2, 1])


def test_backward_accumulates_on_second_call():
    with ad.Tape():
        p = ad.parameter(np.array([1.0 + 0j, 2.0]))
        loss = ad.square_norm(p)
        ad.backward(loss)
        first = p.grad.copy()
        ad.backward(loss)
    assert np.array_equal(p.grad, 2 * first)


def test_backward_linearity():
    rng = np.random.default_rng(21)
    vals = rand_complex(rng, (4,))
    alpha, beta = 0.7, -1.3

    def grads_of(scale_f, scale_g):
        with ad.Tape():
            p = ad.parameter(vals)
            f = ad.square_norm(p)
            g = ad.real_part(ad.sumall(p))
            total = ad.add(ad.mul_const(f, scale_f), ad.mul_const(g, scale_g))
            ad.backward(total)
        return p.grad

    combined = grads_of(alpha, beta)
    gf = grads_of(1.0, 0.0)
    gg = grads_of(0.0, 1.0)
    assert np.max(np.abs(combined - (alpha * gf + beta * gg))) <= 1e-12


def test_backward_rejects_nonscalar():
    with ad.Tape():
        p = ad.parameter(np.array([1.0, 2.0]))
        out = ad.mul_const(p, 2.0)
        with pytest.raises(AutodiffError):
            ad.backward(out)


def test_backward_rejects_complex_scalar():
    with ad.Tape():
        p = ad.parameter(np.array([1.0 + 1j]))
        out = ad.sumall(p)
        with pytest.raises(AutodiffError):
            ad.backward(out)


def test_backward_after_tape_closed_raises():
    with ad.Tape() as tape:
        p = ad.parameter(np.array([1.0, 2.0]))
        loss = ad.square_norm(p)
    assert len(tape) == 0                 # leaving the block drops the records
    with pytest.raises(AutodiffError, match="closed"):
        ad.backward(loss)


def test_spow_propagates_nan_and_rejects_non_positive_bases():
    out = ad.spow(ad.tensor(np.array([4.0, np.nan])), -0.5)
    assert out.values[0] == 0.5 and np.isnan(out.values[1])
    for bad in (0.0, -1.0, -np.inf):
        with pytest.raises(AutodiffError, match="positive base"):
            ad.spow(ad.tensor(np.array([4.0, np.nan, bad])), -0.5)


def test_backward_without_tape_raises():
    p = ad.parameter(np.array(2.0))
    out = ad.spow(p, 2.0)   # eager: no tape active
    assert not out.tracked
    with pytest.raises(AutodiffError):
        ad.backward(out)


def test_ops_outside_tape_are_untracked():
    p = ad.parameter(np.array([1.0, 2.0]))
    out = ad.mul_const(p, 3.0)
    assert not out.tracked and out.is_leaf


def test_forward_replay_bitwise_identical():
    rng = np.random.default_rng(33)
    m = rand_complex(rng, (6, 6))
    v = rand_complex(rng, (6,))

    def run():
        with ad.Tape():
            p = ad.parameter(v)
            out = ad.matvec(ad.tensor(m), ad.tanh(p))
            loss = ad.square_norm(out)
            ad.backward(loss)
        return loss.values.copy(), p.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_shape_errors():
    a = ad.tensor(np.zeros(3))
    b = ad.tensor(np.zeros(4))
    with pytest.raises(ShapeError):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.matvec(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros(4)))
    with pytest.raises(ArityError):
        ad.weighted_sum(ad.tensor(np.zeros(0)), [])
    with pytest.raises(ShapeError):
        ad.weighted_sum(ad.tensor(np.zeros(2)), [a])
    with pytest.raises(LabelError):
        ad.cross_entropy(ad.tensor(np.zeros(3)), 3)
    with pytest.raises(ShapeError):
        ad.scalar_mul(a, b)


def test_gradients_flow_through_mixed_graph():
    # a small expression using many ops at once, FD-checked end to end
    rng = np.random.default_rng(55)
    m = rand_complex(rng, (4, 4))
    v = rand_complex(rng, (4,))

    def build(ls):
        mm, vv = ls
        w = ad.matvec(mm, vv)
        n = ad.square_norm(w)
        scaled = ad.scalar_mul(ad.spow(n, -0.5), w)
        return ad.absval(scaled)

    check_op_gradients(build, [ad.tensor(m), ad.tensor(v)], rng, atol=5e-6)
