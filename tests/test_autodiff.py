"""Unit tests for the complex tape autodiff.

Closed-form gradient checks come first (they bootstrap the probe loss used
by the generic finite-difference harness), then per-op FD sweeps over many
seeds, then tape semantics and error handling.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtmix import autodiff as ad
from qtmix.errors import AutodiffError, LabelError, ShapeError

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
        loss = ad.real_part(ad.sum_last(ad.mul(pa, ad.tensor(b * w))))
        ad.backward(loss)
    assert np.allclose(pa.grad, np.conj(w * b), atol=1e-14)


# ---------------------------------------------------------------------------
# matvec against a brute-force oracle

def test_matvec_identity():
    v = np.array([1 + 1j, 2 - 1j, 0.5j, -3.0])
    out = ad.matvec(ad.tensor(np.eye(4)), ad.tensor(v[None]))
    assert np.array_equal(out.values[0], v)


def test_matvec_permutation():
    perm = np.zeros((4, 4))
    order = [2, 0, 3, 1]
    for i, j in enumerate(order):
        perm[i, j] = 1.0
    v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    out = ad.matvec(ad.tensor(perm), ad.tensor(v[None]))
    assert np.array_equal(out.values[0], v[order])


def test_matvec_against_bruteforce_oracle():
    rng = np.random.default_rng(7)
    m = rand_complex(rng, (4, 4))
    v = rand_complex(rng, (4,))
    expected = np.zeros(4, dtype=complex)
    for i in range(4):
        for j in range(4):
            expected[i] += m[i, j] * v[j]
    out = ad.matvec(ad.tensor(m), ad.tensor(v[None]))
    assert np.max(np.abs(out.values[0] - expected)) <= 1e-12


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
    # a constant is an untracked operand: a same-shape array or a 0-d scalar
    for const in (ad.tensor(rand_complex(rng, (5,))), ad.tensor(1.5 - 0.5j)):
        check_op_gradients(lambda ls, c=const: ad.mul(ls[0], c), [ad.tensor(a)], rng)
        check_op_gradients(lambda ls, c=const: ad.add(ls[0], c), [ad.tensor(a)], rng)
    check_op_gradients(lambda ls: ad.real_part(ls[0]), [ad.tensor(a)], rng)


@pytest.mark.parametrize("seed", range(20))
def test_fd_scalar_ops(seed):
    rng = np.random.default_rng(200 + seed)
    s = rand_complex(rng, ())
    t = rand_complex(rng, (4,))
    check_op_gradients(lambda ls: ad.scalar_mul(ls[0], ls[1]), [ad.tensor(s), ad.tensor(t)], rng)
    check_op_gradients(lambda ls: ad.sum_last(ls[0]), [ad.tensor(t)], rng)
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
    v = rand_complex(rng, (1, 4))
    check_op_gradients(lambda ls: ad.matvec(ls[0], ls[1]), [ad.tensor(m), ad.tensor(v)], rng)
    a = rand_complex(rng, (3, 4))
    check_op_gradients(lambda ls: ad.reshape(ls[0], (2, 6)), [ad.tensor(a)], rng)


def running_sum(coeffs, terms):
    """sum_j coeffs[j] * terms[j] as the mixer's polynomial forms it: a
    running total, one scalar_mul and one add per term, in list order."""
    total = ad.scalar_mul(ad.take_rows(coeffs, 0), terms[0])
    for j, term in enumerate(terms[1:], start=1):
        total = ad.add(total, ad.scalar_mul(ad.take_rows(coeffs, j), term))
    return total


@pytest.mark.parametrize("seed", range(20))
def test_fd_weighted_sum_and_collapse(seed):
    rng = np.random.default_rng(800 + seed)
    k = int(rng.integers(1, 5))
    coeffs = rand_complex(rng, (k,))
    terms = [rand_complex(rng, (6,)) for _ in range(k)]
    check_op_gradients(lambda ls: running_sum(ls[0], ls[1:]),
                       [ad.tensor(coeffs)] + [ad.tensor(t) for t in terms], rng)
    rows = rand_complex(rng, (k, 6))
    check_op_gradients(lambda ls: ad.segment_sum(ad.scalar_mul(ls[0], ls[1]), [k]),
                       [ad.tensor(coeffs), ad.tensor(rows)], rng)


@pytest.mark.parametrize("seed", range(20))
def test_fd_structural_ops(seed):
    rng = np.random.default_rng(1000 + seed)
    table = rand_complex(rng, (7, 3))
    idx = rng.integers(0, 7, size=5)
    check_op_gradients(lambda ls: ad.take_rows(ls[0], idx), [ad.tensor(table)], rng)
    vec = rand_complex(rng, (8,))
    check_op_gradients(lambda ls: ad.take_rows(ls[0], idx), [ad.tensor(vec[:7])], rng)
    rows = rand_complex(rng, (2, 4, 8))
    check_op_gradients(lambda ls: ad.mul(ls[0], ls[1]), [ad.tensor(rows), ad.tensor(vec)], rng)


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
    bias = rand_complex(rng, (4,))
    check_op_gradients(lambda ls: ad.add(ls[0], ls[1]), [ad.tensor(x), ad.tensor(bias)], rng)
    check_op_gradients(lambda ls: ad.add(ls[0], ls[1]),
                       [ad.tensor(x), ad.tensor(rand_complex(rng, ()))], rng)
    s = rand_complex(rng, (3,))
    check_op_gradients(lambda ls: ad.scalar_mul(ls[0], ls[1]), [ad.tensor(s), ad.tensor(x)], rng)
    check_op_gradients(lambda ls: ad.scalar_mul(ad.tensor(s), ls[0]), [ad.tensor(x)], rng)
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
    coeffs = rand_complex(rng, (3,))
    kept = rand_complex(rng, (3, 4))
    check_op_gradients(lambda ls: ad.segment_sum(ad.scalar_mul(ls[0], ls[1]), [2, 1]),
                       [ad.tensor(coeffs), ad.tensor(kept)], rng)


@pytest.mark.parametrize("shape", [(), (3,)])
def test_segment_sum_independent_of_padding_bitwise(shape):
    # a run's sum must not depend on how long the other runs of its batch are
    rng = np.random.default_rng(5)
    for length in range(1, 8):
        run = rng.random((length,) + shape) + 1j * rng.random((length,) + shape)
        alone = ad.segment_sum(ad.tensor(run), [length]).values[0]
        for longest in (8, 9, 12, 20):
            other = rng.random((longest,) + shape)
            batch = ad.segment_sum(ad.tensor(np.concatenate([other, run])), [longest, length])
            assert np.array_equal(alone, batch.values[1]), (length, longest)


@pytest.mark.parametrize("shape", [(), (7,), (4, 3)])
def test_segment_sum_is_reduceat_bitwise_on_ragged_runs(shape):
    # pins the sums' bits, -0.0 included, for any faster form of the op:
    # np.add.reduceat adds each column of a run pairwise, not row by row
    rng = np.random.default_rng(12)
    counts = [1, 3, 9, 2, 70, 5]
    full = (sum(counts),) + shape
    rows = (rng.standard_normal(full) * 10.0 ** rng.integers(-12, 12, size=full)
            + 1j * rng.standard_normal(full))
    rows.real[rng.random(full) < 0.3] = -0.0
    rows.imag[rng.random(full) < 0.3] = -0.0
    rows[0] = -0.0                        # a one-row run is its row
    out = ad.segment_sum(ad.tensor(rows), counts).values
    expect = np.add.reduceat(rows, np.cumsum(counts) - counts, axis=0)
    assert out.tobytes() == expect.tobytes()
    assert out[0].tobytes() == rows[0].tobytes()


def test_softmax_segments_match_separate_softmaxes():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(7)
    seg = ad.softmax(ad.tensor(x), [3, 4])
    assert np.allclose(seg.values[:3], ad.softmax(ad.tensor(x[:3]), [3]).values, atol=1e-15)
    assert np.allclose(seg.values[3:], ad.softmax(ad.tensor(x[3:]), [4]).values, atol=1e-15)


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
    check_op_gradients(lambda ls: ad.softmax(ls[0], [6]), [ad.tensor(x)], rng,
                       complex_leaves=set())


@pytest.mark.parametrize("seed", range(20))
def test_fd_cross_entropy(seed):
    rng = np.random.default_rng(1400 + seed)
    logits = rng.standard_normal((1, 4))
    label = [int(rng.integers(0, 4))]
    check_op_gradients(lambda ls: ad.cross_entropy(ls[0], label),
                       [ad.tensor(logits)], rng, complex_leaves=set())


def test_cross_entropy_value():
    # uniform logits over C classes cost log(C)
    logits = ad.tensor(np.zeros((1, 4)))
    loss = ad.cross_entropy(logits, [2])
    assert loss.real_item() == pytest.approx(np.log(4.0))


# ---------------------------------------------------------------------------
# tape semantics

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
            g = ad.real_part(ad.sum_last(p))
            total = ad.add(ad.mul(f, ad.tensor(scale_f)), ad.mul(g, ad.tensor(scale_g)))
            ad.backward(total)
        return p.grad

    combined = grads_of(alpha, beta)
    gf = grads_of(1.0, 0.0)
    gg = grads_of(0.0, 1.0)
    assert np.max(np.abs(combined - (alpha * gf + beta * gg))) <= 1e-12


def test_backward_rejects_nonscalar():
    with ad.Tape():
        p = ad.parameter(np.array([1.0, 2.0]))
        out = ad.mul(p, ad.tensor(2.0))
        with pytest.raises(AutodiffError):
            ad.backward(out)


def test_backward_rejects_complex_scalar():
    with ad.Tape():
        p = ad.parameter(np.array([1.0 + 1j]))
        out = ad.sum_last(p)
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


def test_backward_of_a_tracked_leaf_raises():
    # a parameter is on no tape: there is no sweep to run from it
    p = ad.parameter(np.array(2.0))
    with ad.Tape():
        with pytest.raises(AutodiffError, match="not produced on an active tape"):
            ad.backward(p)


def test_tape_frees_an_output_that_no_vjp_captures():
    # take_rows' and add's vjps keep no values, so the gathered rows
    # live only while their name does; the gradients do not change
    vals = rand_complex(np.random.default_rng(23), (4,))

    def grad(drop):
        with ad.Tape():
            p = ad.parameter(vals)
            rows = ad.take_rows(p, [2, 0, 2])
            alive = weakref.ref(rows.values)
            shifted = ad.add(rows, ad.tensor(1.0))
            if drop:
                del rows
                assert alive() is None
            ad.backward(ad.square_norm(shifted))
        return p.grad

    assert np.array_equal(grad(True), grad(False))


def test_ops_outside_tape_are_untracked():
    p = ad.parameter(np.array([1.0, 2.0]))
    out = ad.mul(p, ad.tensor(3.0))
    assert not out.tracked and out.is_leaf


def test_forward_replay_bitwise_identical():
    rng = np.random.default_rng(33)
    m = rand_complex(rng, (6, 6))
    v = rand_complex(rng, (1, 6))

    def run():
        with ad.Tape():
            p = ad.parameter(v)
            out = ad.matvec(ad.tensor(m), ad.tanh(p))
            loss = ad.sum_last(ad.square_norm(out))
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
    for x, y in ((a, b), (a, ad.tensor(np.zeros((2, 3))))):   # b must be a's trailing axes
        with pytest.raises(ShapeError):
            ad.mul(x, y)
    with pytest.raises(ShapeError):
        ad.matvec(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((1, 4))))
    with pytest.raises(ShapeError):
        ad.matvec(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros(3)))
    with pytest.raises(LabelError):
        ad.cross_entropy(ad.tensor(np.zeros((1, 3))), [3])
    for logits, labels in ((np.zeros(3), 1), (np.zeros((1, 3)), 1), (np.zeros((2, 3)), [1])):
        with pytest.raises(ShapeError):     # a (D, C) batch with (D,) labels only
            ad.cross_entropy(ad.tensor(logits), labels)
    with pytest.raises(ShapeError):
        ad.scalar_mul(a, b)
    rows = ad.tensor(np.zeros((4, 3)))
    for counts in ([0, 4], [2, 1], [3, 2], []):     # runs must be nonempty and cover the rows
        with pytest.raises(ShapeError):
            ad.segment_sum(rows, counts)


def test_gradients_flow_through_mixed_graph():
    # a small expression using many ops at once, FD-checked end to end
    rng = np.random.default_rng(55)
    m = rand_complex(rng, (4, 4))
    v = rand_complex(rng, (1, 4))

    def build(ls):
        mm, vv = ls
        w = ad.matvec(mm, vv)
        n = ad.square_norm(w)
        scaled = ad.scalar_mul(ad.spow(n, -0.5), w)
        return ad.absval(scaled)

    check_op_gradients(build, [ad.tensor(m), ad.tensor(v)], rng, atol=5e-6)
