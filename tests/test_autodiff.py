"""Unit tests for the reverse-mode autodiff engine.

Hand-computed values pin down the easy cases; central finite differences
(grad_check, eps=1e-6) act as the oracle for every primitive's backward
rule on batches of seeded random inputs.
"""

import threading

import numpy as np
import pytest

from gram import autodiff as ad
from gram.autodiff import (
    GraphConsumedError,
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    add_n,
    backward,
    bce_loss,
    concat,
    gather,
    grad_check,
    gru_scan,
    matmul,
    mean_pool,
    mse_half,
    mul,
    neg,
    no_grad,
    prefix_attention,
    relu,
    reshape,
    row_dot,
    scale,
    sigmoid,
    softmax,
    stack,
    sub,
    sum_all,
    tanh,
    tensor,
    track_activations,
    transpose,
)

FD_TOL = 1e-5
N_TRIALS = 100


def leaf(rng, shape):
    return tensor(rng.standard_normal(shape), grad=True)


# ---------------------------------------------------------------------------
# Hand-checked forward values
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = tensor(np.eye(2))
    b = tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(a, b)
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_projector():
    p = tensor([[1.0, 0.0], [0.0, 0.0]])
    b = tensor([[5.0, 6.0], [7.0, 8.0]])
    out = matmul(p, b)
    assert np.array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        matmul(tensor(np.ones(3)), tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):   # unequal batch sizes
        matmul(tensor(np.ones((2, 3, 4))), tensor(np.ones((3, 4, 5))))
    with pytest.raises(ShapeError):   # batched inner dimensions disagree
        matmul(tensor(np.ones((2, 3, 4))), tensor(np.ones((2, 3, 5))))
    with pytest.raises(ShapeError):   # 2-D with 3-D
        matmul(tensor(np.ones((3, 4))), tensor(np.ones((2, 4, 5))))
    with pytest.raises(ShapeError):   # 3-D with 2-D
        matmul(tensor(np.ones((2, 3, 4))), tensor(np.ones((4, 5))))
    with pytest.raises(ShapeError):   # 4-D
        matmul(tensor(np.ones((1, 2, 3, 4))), tensor(np.ones((1, 2, 4, 3))))


def test_transpose_shape_error():
    with pytest.raises(ShapeError):
        transpose(tensor(np.ones((1, 2, 3, 4))))
    with pytest.raises(ShapeError):
        transpose(tensor(np.ones(3)))


def test_batched_matmul_and_transpose_match_per_matrix_results():
    rng = np.random.default_rng(3)
    a = tensor(rng.standard_normal((3, 2, 4)))
    b = tensor(rng.standard_normal((3, 4, 5)))
    out = matmul(a, b)
    assert out.shape == (3, 2, 5)
    for i in range(3):
        assert np.array_equal(out.data[i], a.data[i] @ b.data[i])
        assert np.array_equal(transpose(a).data[i], a.data[i].T)


def test_sigmoid_at_zero():
    x = tensor(0.0, grad=True)
    out = sigmoid(x)
    assert out.item() == pytest.approx(0.5)
    grads = backward(out)
    assert grads[x].item() == pytest.approx(0.25)


def test_sigmoid_extreme_inputs_stay_finite():
    out = sigmoid(tensor([-800.0, 800.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(0.0, abs=1e-12)
    assert out.data[1] == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_one_exp_matches_two_exp_formula_bitwise():
    # exp(-|x|) never overflows: no overflow or invalid is raised, and the
    # values are the bytes of the formula that evaluates exp(-x) and exp(x)
    # under errstate; exp(-800) underflows to 0 in both, as numpy allows
    x = np.array([800.0, -800.0, 1e-300, -1e-300, 0.0])
    for dt in (np.float64, np.float32):
        xd = x.astype(dt)
        with np.errstate(over="ignore", invalid="ignore"):
            old = np.where(xd >= 0, 1.0 / (1.0 + np.exp(-xd)), np.exp(xd) / (1.0 + np.exp(xd)))
        with np.errstate(all="raise", under="ignore"):
            out = sigmoid(tensor(xd)).data
        assert out.dtype == dt
        assert out.tobytes() == old.astype(dt).tobytes()


def test_gather_repeated_ids_accumulate():
    table = tensor(np.arange(12.0).reshape(4, 3), grad=True)
    out = gather(table, [2, 2, 0])
    assert np.array_equal(out.data, table.data[[2, 2, 0]])
    # upstream grads: ones -> row 2 of table grad receives 1+1
    g = backward(sum_all(out))[table].data
    assert np.array_equal(g[2], [2.0, 2.0, 2.0])
    assert np.array_equal(g[0], [1.0, 1.0, 1.0])
    assert np.array_equal(g[1], [0.0, 0.0, 0.0])


def test_gather_backward_equals_add_at_and_keeps_the_table_dtype():
    rng = np.random.default_rng(11)
    ids = rng.integers(0, 20, size=300)        # every row repeats
    table = tensor(rng.standard_normal((20, 5)), grad=True)
    c = rng.standard_normal((300, 5))
    g = backward(sum_all(mul(gather(table, ids), Tensor(c))))[table].data
    expected = np.zeros((20, 5))
    np.add.at(expected, ids, c)
    assert g.tobytes() == expected.tobytes()
    t32 = tensor(table.data.astype(np.float32), grad=True)
    g32 = backward(sum_all(mul(gather(t32, ids), Tensor(c.astype(np.float32)))))[t32].data
    assert g32.dtype == np.float32 and np.allclose(g32, expected, rtol=1e-5, atol=1e-5)


def test_gather_out_of_range():
    table = tensor(np.zeros((4, 3)))
    with pytest.raises(IndexError):
        gather(table, [0, 4])
    with pytest.raises(IndexError):
        gather(table, [-1])


def test_bce_half_probability():
    # logit 0 is probability 1/2, whose cross-entropy is log 2 either way
    out = bce_loss(tensor([0.0], grad=True), tensor([1.0]))
    assert out.item() == pytest.approx(np.log(2.0), rel=1e-12)


def test_bce_perfect_prediction_near_zero():
    out = bce_loss(tensor([40.0, -40.0], grad=True), tensor([1.0, 0.0]))
    assert out.item() < 1e-10


def test_bce_confident_wrong_prediction_keeps_its_gradient():
    # a clamped probability would cap this loss at -log(1e-12) = 27.63 and
    # zero its gradient; the logit form gives the true loss and p - y
    x = tensor([40.0], grad=True)
    out = bce_loss(x, tensor([0.0]))
    assert out.item() == pytest.approx(40.0, rel=1e-12)
    assert backward(out)[x].data == pytest.approx([1.0], rel=1e-12)


def test_bce_float32_confident_logits_are_finite():
    ad.set_default_dtype(np.float32)
    try:
        x = tensor([20.0], grad=True)
        right = bce_loss(x, tensor([1.0]))
        wrong = bce_loss(x, tensor([0.0]))
        assert right.dtype == wrong.dtype == np.float32
        assert right.item() == pytest.approx(2.06e-9, rel=1e-2)
        assert wrong.item() == pytest.approx(20.0, rel=1e-6)
        assert backward(right)[x].dtype == np.float32
    finally:
        ad.set_default_dtype(np.float64)


def test_bce_rejects_bad_labels():
    x = tensor([0.5])
    with pytest.raises(ValueError):
        bce_loss(x, tensor([0.5]))
    with pytest.raises(ValueError):
        bce_loss(x, tensor([2.0]))


def test_mse_half_values():
    a = tensor([1.0, 0.0])
    b = tensor([0.0, 0.0], grad=True)
    out = mse_half(a, b)
    assert out.item() == pytest.approx(0.5)
    g = backward(out)[b].data
    assert np.allclose(g, [-1.0, 0.0])

    same = tensor([3.0, -2.0], grad=True)
    out2 = mse_half(same.detach(), same)
    assert out2.item() == 0.0
    assert np.array_equal(backward(out2)[same].data, [0.0, 0.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = tensor(rng.standard_normal((5, 8)) * 30.0)
    out = softmax(x, axis=-1)
    assert np.allclose(out.data.sum(axis=-1), 1.0)
    assert np.all(out.data >= 0.0)


def test_mean_pool_value():
    x = tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.allclose(mean_pool(x, axis=0).data, [3.0, 4.0])
    assert np.allclose(mean_pool(x, axis=1).data, [1.5, 3.5, 5.5])


def test_add_bias_row_broadcast():
    x = tensor(np.zeros((3, 2)), grad=True)
    b = tensor([1.0, -1.0], grad=True)
    out = add(x, b)
    assert np.allclose(out.data, [[1.0, -1.0]] * 3)
    g = backward(sum_all(out))
    assert np.allclose(g[b].data, [3.0, 3.0])
    assert g[x].data.shape == (3, 2)


def test_add_rejects_general_broadcast():
    with pytest.raises(ShapeError):
        add(tensor(np.ones((3, 2))), tensor(np.ones((3, 1))))


# ---------------------------------------------------------------------------
# Finite-difference checks, one batch of random inputs per primitive
# ---------------------------------------------------------------------------


def run_trials(make_f, make_x, n=N_TRIALS, tol=FD_TOL):
    """Each trial builds a fresh scalar function (with its own random
    readout weights, so upstream gradients are non-uniform) and a fresh
    random input, then checks reverse-mode against central differences."""
    rng = np.random.default_rng(20240511)
    worst = 0.0
    for _ in range(n):
        x = make_x(rng)
        worst = max(worst, grad_check(make_f(rng), x))
    assert worst <= tol, f"worst relative error {worst:.3e}"


def test_grad_check_measures_error_against_the_gradient_scale():
    # the gradient (1, 1e-9) is exact, but the small component's central
    # difference carries rounding of about 4e-4 of itself
    c = Tensor(np.array([1.0, 1e-9]))
    x = tensor(np.array([0.3, 0.7]), grad=True)
    assert grad_check(lambda v: sum_all(mul(v, c)), x) < 1e-9


def test_fd_matmul():
    def make_f(rng):
        b = Tensor(rng.standard_normal((4, 2)))
        c = Tensor(rng.standard_normal((3, 2)))
        return lambda x: sum_all(mul(matmul(x, b), c))

    run_trials(make_f, lambda rng: leaf(rng, (3, 4)))


def test_fd_matmul_right_operand():
    def make_f(rng):
        a = Tensor(rng.standard_normal((3, 4)))
        c = Tensor(rng.standard_normal((3, 2)))
        return lambda x: sum_all(mul(matmul(a, x), c))

    run_trials(make_f, lambda rng: leaf(rng, (4, 2)))


def test_fd_batched_matmul():
    def make_f(rng):
        b = Tensor(rng.standard_normal((2, 4, 3)))
        c = Tensor(rng.standard_normal((2, 3, 3)))
        return lambda x: sum_all(mul(matmul(x, b), c))

    run_trials(make_f, lambda rng: leaf(rng, (2, 3, 4)))


def test_fd_batched_matmul_right_operand():
    def make_f(rng):
        a = Tensor(rng.standard_normal((2, 3, 4)))
        c = Tensor(rng.standard_normal((2, 3, 2)))
        return lambda x: sum_all(mul(matmul(a, x), c))

    run_trials(make_f, lambda rng: leaf(rng, (2, 4, 2)))


def test_fd_add_sub_mul():
    def make_f(rng):
        other = Tensor(rng.standard_normal((3, 4)))
        c = Tensor(rng.standard_normal((3, 4)))
        return lambda x: sum_all(mul(mul(add(x, other), sub(x, other)), c))

    run_trials(make_f, lambda rng: leaf(rng, (3, 4)))


def test_fd_add_bias():
    def make_f(rng):
        m = Tensor(rng.standard_normal((5, 3)))
        c = Tensor(rng.standard_normal((5, 3)))
        return lambda x: sum_all(mul(add(m, x), c))

    run_trials(make_f, lambda rng: leaf(rng, (3,)))


def test_fd_scale_neg():
    def make_f(rng):
        c = Tensor(rng.standard_normal((4,)))
        return lambda x: sum_all(mul(neg(scale(x, 2.5)), c))

    run_trials(make_f, lambda rng: leaf(rng, (4,)))


def test_fd_scalar_broadcast():
    # the 0-d grad leaf on either side of each broadcasting binary op; the
    # readout c makes the upstream gradient non-uniform before it is summed
    for op in (add, sub, mul):
        for left in (True, False):
            def make_f(rng, op=op, left=left):
                m = Tensor(rng.standard_normal((3, 3)))
                c = Tensor(rng.standard_normal((3, 3)))
                if left:
                    return lambda x: sum_all(mul(op(x, m), c))
                return lambda x: sum_all(mul(op(m, x), c))

            run_trials(make_f, lambda rng: tensor(rng.standard_normal(()), grad=True))


def test_fd_sigmoid():
    def make_f(rng):
        c = Tensor(rng.standard_normal((6,)))
        return lambda x: sum_all(mul(sigmoid(x), c))

    run_trials(make_f, lambda rng: leaf(rng, (6,)))


def test_fd_tanh():
    def make_f(rng):
        c = Tensor(rng.standard_normal((6,)))
        return lambda x: sum_all(mul(tanh(x), c))

    run_trials(make_f, lambda rng: leaf(rng, (6,)))


def test_fd_relu():
    def make_f(rng):
        c = Tensor(rng.standard_normal((8,)))
        return lambda x: sum_all(mul(relu(x), c))

    def make_x(rng):
        # keep inputs away from the kink at 0, where the derivative jumps
        x = rng.standard_normal(8)
        x = np.where(np.abs(x) < 0.05, 0.5 * np.sign(x) + (x == 0), x)
        return tensor(x, grad=True)

    run_trials(make_f, make_x)


def test_fd_softmax():
    def make_f(rng):
        c = Tensor(rng.standard_normal((4, 5)))
        return lambda x: sum_all(mul(softmax(x, axis=-1), c))

    run_trials(make_f, lambda rng: leaf(rng, (4, 5)))


def test_fd_transpose_reshape():
    def make_f(rng):
        c = Tensor(rng.standard_normal((4, 3)))
        c2 = Tensor(rng.standard_normal((2, 6)))
        return lambda x: add(
            sum_all(mul(transpose(x), c)),
            sum_all(mul(reshape(x, (2, 6)), c2)),
        )

    run_trials(make_f, lambda rng: leaf(rng, (3, 4)))


def test_fd_batched_transpose_mean_pool():
    def make_f(rng):
        c = Tensor(rng.standard_normal((2, 4, 3)))
        c2 = Tensor(rng.standard_normal((2, 4)))
        return lambda x: add(
            sum_all(mul(transpose(x), c)),
            sum_all(mul(mean_pool(x, axis=1), c2)),
        )

    run_trials(make_f, lambda rng: leaf(rng, (2, 3, 4)))


def test_fd_concat_stack():
    def make_f(rng):
        other = Tensor(rng.standard_normal((2, 3)))
        c = Tensor(rng.standard_normal((4, 3)))
        c2 = Tensor(rng.standard_normal((2, 2, 3)))
        return lambda x: add(
            sum_all(mul(concat([x, other], axis=0), c)),
            sum_all(mul(stack([x, x]), c2)),
        )

    run_trials(make_f, lambda rng: leaf(rng, (2, 3)))


def test_stack_of_scalars_keeps_grad_shape():
    # scalar parents must get 0-d grads back, not (1,)
    b = tensor(np.zeros(()), grad=True)
    s = stack([add(b, Tensor(np.asarray(1.0))), add(b, Tensor(np.asarray(2.0)))])
    g = backward(sum_all(s))
    assert g[b].shape == ()
    assert float(g[b].data) == 2.0


def test_fd_gather():
    ids = [0, 2, 2, 4, 1]

    def make_f(rng):
        c = Tensor(rng.standard_normal((5, 3)))
        return lambda x: sum_all(mul(gather(x, ids), c))

    run_trials(make_f, lambda rng: leaf(rng, (5, 3)))


# row_dot of 5 rows against a 4-row table: table rows 1 and 3 are read
# twice, row 2 never
RD_IDS = np.array([1, 3, 0, 3, 1])


@pytest.mark.parametrize("wrt", ["a", "table"])
def test_fd_row_dot(wrt):
    def make_f(rng):
        args = {"a": leaf(rng, (5, 3)), "table": leaf(rng, (4, 3))}
        c = Tensor(rng.standard_normal(5))
        return lambda x: sum_all(mul(row_dot(**dict(args, **{wrt: x}), ids=RD_IDS), c))

    run_trials(make_f, lambda rng: leaf(rng, {"a": (5, 3), "table": (4, 3)}[wrt]))


def test_row_dot_values_and_scatter_match_a_gathered_product():
    rng = np.random.default_rng(31)
    a, table = leaf(rng, (5, 3)), leaf(rng, (4, 3))
    out = row_dot(a, table, RD_IDS)
    assert out.shape == (5,)
    assert np.allclose(out.data, (a.data * table.data[RD_IDS]).sum(axis=1), rtol=1e-14, atol=0)
    c = rng.standard_normal(5)
    g = backward(sum_all(mul(out, Tensor(c))))
    expected = np.zeros((4, 3))
    np.add.at(expected, RD_IDS, c[:, None] * a.data)
    assert g[table].data.tobytes() == expected.tobytes()
    assert np.all(g[table].data[2] == 0.0)
    assert np.array_equal(g[a].data, c[:, None] * table.data[RD_IDS])


def test_row_dot_float32_outputs_and_gradients():
    rng = np.random.default_rng(32)
    a = tensor(rng.standard_normal((5, 3)).astype(np.float32), grad=True)
    table = tensor(rng.standard_normal((4, 3)).astype(np.float32), grad=True)
    out = row_dot(a, table, RD_IDS)
    assert out.dtype == np.float32
    grads = backward(sum_all(out))
    assert all(grads[t].dtype == np.float32 and grads[t].shape == t.shape for t in (a, table))


def test_row_dot_rejects_mixed_dtypes_bad_shapes_and_out_of_range_ids():
    rng = np.random.default_rng(33)
    a, table = leaf(rng, (5, 3)), leaf(rng, (4, 3))
    with pytest.raises(TypeError):
        row_dot(a, tensor(table.data.astype(np.float32)), RD_IDS)
    bad = [
        (tensor(np.zeros(5)), table, RD_IDS),              # 1-D left operand
        (a, tensor(np.zeros(12)), RD_IDS),                 # 1-D table
        (a, tensor(np.zeros((4, 2))), RD_IDS),             # widths disagree
        (a, table, RD_IDS[:4]),                            # one id short
        (a, table, RD_IDS[None]),                          # 2-D ids
    ]
    for args in bad:
        with pytest.raises(ShapeError, match="row_dot"):
            row_dot(*args)
    for ids in ([1, 3, 0, 3, 4], [1, 3, -1, 3, 1]):
        with pytest.raises(IndexError, match="row_dot"):
            row_dot(a, table, ids)


def test_fd_mean_pool():
    def make_f(rng):
        c = Tensor(rng.standard_normal((4,)))
        return lambda x: sum_all(mul(mean_pool(x, axis=0), c))

    run_trials(make_f, lambda rng: leaf(rng, (6, 4)))


def test_fd_add_n():
    def make_f(rng):
        o1 = Tensor(rng.standard_normal((3,)))
        o2 = Tensor(rng.standard_normal((3,)))
        c = Tensor(rng.standard_normal((3,)))
        return lambda x: sum_all(mul(add_n([x, o1, x, o2]), c))

    run_trials(make_f, lambda rng: leaf(rng, (3,)))


def test_fd_bce():
    # logits of scale 3 reach well into the sigmoid's flat tails
    def make_f(rng):
        y = Tensor((rng.random(6) < 0.5).astype(np.float64))
        return lambda x: bce_loss(x, y)

    run_trials(make_f, lambda rng: tensor(3.0 * rng.standard_normal(6), grad=True))


def test_fd_bce_sum():
    # the loss sums over every element of a (batch, labels) block of logits
    def make_f(rng):
        y = Tensor((rng.random((4, 5)) < 0.5).astype(np.float64))
        return lambda x: bce_loss(x, y)

    run_trials(make_f, lambda rng: leaf(rng, (4, 5)))


def test_fd_mse_half():
    def make_f(rng):
        a = Tensor(rng.standard_normal((7,)))
        return lambda x: mse_half(a, x)

    run_trials(make_f, lambda rng: leaf(rng, (7,)), tol=1e-6)


# ---------------------------------------------------------------------------
# Graph mechanics
# ---------------------------------------------------------------------------


def test_backward_twice_raises():
    x = tensor([1.0, 2.0], grad=True)
    loss = sum_all(mul(x, x))
    backward(loss)
    with pytest.raises(GraphConsumedError):
        backward(loss)


def test_backward_on_shared_consumed_subgraph_raises():
    x = tensor([1.0, 2.0], grad=True)
    h = mul(x, x)
    backward(sum_all(h))
    with pytest.raises(GraphConsumedError):
        backward(sum_all(mul(h, h)))


def test_backward_requires_scalar():
    x = tensor([1.0, 2.0], grad=True)
    with pytest.raises(ShapeError):
        backward(mul(x, x))


def test_gather_gradient_mass_conservation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        table = leaf(rng, (6, 4))
        ids = rng.integers(0, 6, size=9)
        w = Tensor(rng.standard_normal((9, 4)))
        g = backward(sum_all(mul(gather(table, ids), w)))[table].data
        assert np.isclose(g.sum(), w.data.sum())


def test_backward_linearity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        xv = rng.standard_normal((3, 3))
        w = Tensor(rng.standard_normal((3, 3)))

        def l1(t):
            return sum_all(mul(sigmoid(t), w))

        def l2(t):
            return sum_all(mul(tanh(matmul(t, t)), w))

        xa = tensor(xv, grad=True)
        g_joint = backward(add(l1(xa), l2(xa)))[xa].data
        xb = tensor(xv, grad=True)
        xc = tensor(xv, grad=True)
        g_split = backward(l1(xb))[xb].data + backward(l2(xc))[xc].data
        assert np.allclose(g_joint, g_split, atol=1e-12)


def test_no_grad_blocks_taping():
    x = tensor([1.0], grad=True)
    with no_grad():
        out = sigmoid(mul(x, x))
    assert not out.grad_enabled
    assert out.is_leaf()


def test_grad_disabled_leaf_gets_no_entry():
    x = tensor([1.0, 2.0], grad=True)
    c = tensor([3.0, 4.0])  # plain data
    grads = backward(sum_all(mul(x, c)))
    assert x in grads
    assert c not in grads


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = tensor(rng.standard_normal((4, 4)), grad=True)
        w = tensor(rng.standard_normal((4, 4)), grad=True)
        loss = bce_loss(mean_pool(matmul(x, w), axis=0),
                        Tensor(np.array([1.0, 0.0, 0.0, 1.0])))
        grads = backward(loss)
        return loss.data.copy(), grads[x].data.copy(), grads[w].data.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


# gru_scan over users of 2, 4, 1 and 3 interactions (rows 0-1, 2-5, 6 and
# 7-9) with d_h=3: steps 0 .. 2 give 3 + 2 + 1 slots. The users are out of
# length order, so the op's longest-first packing permutes them, and the
# 1-interaction user has no slot.
GRU_LENGTHS = np.array([2, 4, 1, 3])
GRU_SHAPES = {"xg": (10, 9), "w_hh": (3, 9), "b_hh": (9,)}


def gru_operand(rng, name, dtype=np.float64):
    # Scaled so the gates do not saturate: a saturated gate's gradient is
    # so small that central differences measure mostly rounding. For the
    # same reason b_hh keeps away from 0: from h = 0 the first step's
    # reset-gate gradient is proportional to b_hh's candidate part.
    v = 0.5 * rng.standard_normal(GRU_SHAPES[name])
    if name == "b_hh":
        v = np.sign(v) * (0.5 + np.abs(v))
    return tensor(v.astype(dtype), grad=True)


def gru_args(rng, dtype=np.float64):
    return {k: gru_operand(rng, k, dtype) for k in GRU_SHAPES}


def gru(a, lengths=GRU_LENGTHS):
    return gru_scan(a["xg"], a["w_hh"], a["b_hh"], lengths)


@pytest.mark.parametrize("wrt", list(GRU_SHAPES))
def test_fd_gru_scan(wrt):
    def make_f(rng):
        args = gru_args(rng)
        c = Tensor(rng.standard_normal((6, 3)))
        return lambda x: sum_all(mul(gru(dict(args, **{wrt: x})), c))

    run_trials(make_f, lambda rng: gru_operand(rng, wrt))


def test_gru_scan_matches_a_per_user_loop():
    # the cell run user by user from h = 0, slots ordered step then user
    a = gru_args(np.random.default_rng(2))
    x, w, b = (a[k].data for k in GRU_SHAPES)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    slots, first = [], np.cumsum(GRU_LENGTHS) - GRU_LENGTHS
    for u, (f, n_u) in enumerate(zip(first, GRU_LENGTHS)):
        h = np.zeros(3)
        for n in range(n_u - 1):
            hg = h @ w + b
            r, z = sig(x[f + n, :3] + hg[:3]), sig(x[f + n, 3:6] + hg[3:6])
            c = np.tanh(x[f + n, 6:] + r * hg[6:])
            h = c + z * (h - c)
            slots.append((n, u, h))
    expected = np.array([h for *_, h in sorted(slots, key=lambda s: s[:2])])
    assert np.allclose(gru(a).data, expected, rtol=1e-12, atol=1e-14)


def test_gru_scan_float32_outputs_and_gradients():
    args = gru_args(np.random.default_rng(3), np.float32)
    h = gru(args)
    assert h.shape == (6, 3) and h.dtype == np.float32
    grads = backward(sum_all(h))
    assert all(grads[t].dtype == np.float32 and grads[t].shape == t.shape for t in args.values())


def test_gru_scan_rejects_mixed_dtypes_and_bad_shapes():
    rng = np.random.default_rng(4)
    a = gru_args(rng)
    with pytest.raises(TypeError):
        gru(dict(a, w_hh=tensor(a["w_hh"].data.astype(np.float32))))
    bad = [
        (dict(a, w_hh=tensor(np.zeros((3, 6)))), GRU_LENGTHS),   # w_hh not (d_h, 3*d_h)
        (dict(a, b_hh=tensor(np.zeros(6))), GRU_LENGTHS),
        (dict(a, xg=tensor(np.zeros((10, 6)))), GRU_LENGTHS),
        (a, np.array([1] * 10)),                                 # no step
        (dict(a, xg=tensor(np.zeros((0, 9)))), GRU_LENGTHS[:0]),
        (a, GRU_LENGTHS[None]),
    ]
    for args, lengths in bad:
        with pytest.raises(ShapeError, match="gru_scan"):
            gru(args, lengths)
    for lengths in ([2, 4, 1, 2], [2, 4, 1, 4], [2, 5, -1, 4]):
        with pytest.raises(ShapeError, match="gru_scan: lengths must .* sum to .* 10 rows"):
            gru(a, np.array(lengths))


def test_gru_scan_raises_naming_its_step():
    # h @ w_hh + b_hh is finite; adding the input side overflows at step 0
    a = gru_args(np.random.default_rng(5))
    a.update(xg=tensor(np.full((10, 9), 1e308)), b_hh=tensor(np.full(9, 1e308)))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="gru_scan .* step 0"):
        gru(a)


def test_gru_scan_accounts_saved_arrays_and_keeps_none_under_no_grad():
    a = gru_args(np.random.default_rng(6))
    acct = CountingAccountant()
    with track_activations(acct):
        with no_grad():
            gru(a)
        assert acct.peak == 0
        loss = sum_all(gru(a))
    assert acct.current == 5 * 6 * 3        # r, z, c, hg_c and h per slot
    backward(loss)
    assert acct.current == 0


# prefix_attention over users of 2 and 7 interactions (rows 0-1 and 2-8)
# with d_h=3 and d=4: prefix lengths 1 .. 6 give 2 + 5 * 1 slots. The
# 2-interaction user appears only at n=1, where both softmaxes have one
# element and pass no gradient to q, k or the pooling weights. The op's
# (9, 3 + 3 + 4) qkv operand is built by concat from q_all, k_all and
# v_all, so each finite-difference check covers one column block of it.
PA_LENGTHS = np.array([2, 7])
PA_SHAPES = {"q_all": (9, 3), "k_all": (9, 3), "v_all": (9, 4), "w_pool": (4, 3), "v_pool": (3, 1)}


def pa_operand(rng, name, dtype=np.float64):
    # w_pool is halved so tanh does not saturate. v_pool keeps away from 0:
    # column j of w_pool's gradient is proportional to v_pool[j], and a
    # near-zero column is so small that central differences measure
    # mostly rounding.
    v = rng.standard_normal(PA_SHAPES[name])
    if name == "w_pool":
        v = 0.5 * v
    if name == "v_pool":
        v = np.sign(v) * (0.5 + np.abs(v))
    return tensor(v.astype(dtype), grad=True)


def pa_args(rng, dtype=np.float64):
    return {k: pa_operand(rng, k, dtype) for k in PA_SHAPES}


def pa(a, lengths=PA_LENGTHS, rows=None):
    qkv = concat([a["q_all"], a["k_all"], a["v_all"]], axis=1)
    rows = np.arange(qkv.shape[0]) if rows is None else rows
    return prefix_attention(qkv, rows, a["w_pool"], a["v_pool"], lengths)


@pytest.mark.parametrize("wrt", list(PA_SHAPES))
def test_fd_prefix_attention(wrt):
    def make_f(rng):
        args = pa_args(rng)
        c = Tensor(rng.standard_normal((7, 4)))
        return lambda x: sum_all(mul(pa(dict(args, **{wrt: x})), c))

    run_trials(make_f, lambda rng: pa_operand(rng, wrt))


# The same users reading a 6-row table through an index: table row 2 is
# read by both users, row 3 twice by user 1, row 0 by user 1, and row 1
# only by the two users' last interactions, which no prefix reads.
PA_TABLE_ROWS = np.array([2, 0, 2, 3, 0, 4, 5, 3, 1])


def pa_table_operand(rng, name):
    t = pa_operand(rng, name)
    return tensor(t.data[:6], grad=True) if name.endswith("_all") else t


def pa_table_args(rng):
    return {k: pa_table_operand(rng, k) for k in PA_SHAPES}


@pytest.mark.parametrize("wrt", list(PA_SHAPES))
def test_fd_prefix_attention_through_a_repeating_index(wrt):
    def make_f(rng):
        args = pa_table_args(rng)
        c = Tensor(rng.standard_normal((7, 4)))
        return lambda x: sum_all(mul(pa(dict(args, **{wrt: x}), rows=PA_TABLE_ROWS), c))

    run_trials(make_f, lambda rng: pa_table_operand(rng, wrt))


def test_prefix_attention_through_an_index_equals_attention_over_gathered_rows():
    # reading the table through the index is reading its gather: the
    # values agree, and the table's gradient is the gather's scatter-add
    a = pa_table_args(np.random.default_rng(15))
    qkv = tensor(concat([a["q_all"], a["k_all"], a["v_all"]], axis=1).data, grad=True)
    c = Tensor(np.random.default_rng(16).standard_normal((7, 4)))
    via_index = prefix_attention(qkv, PA_TABLE_ROWS, a["w_pool"], a["v_pool"], PA_LENGTHS)
    via_gather = prefix_attention(gather(qkv, PA_TABLE_ROWS), np.arange(9), a["w_pool"],
                                  a["v_pool"], PA_LENGTHS)
    assert np.array_equal(via_index.data, via_gather.data)
    g_index = backward(sum_all(mul(via_index, c)))[qkv].data
    g_gather = backward(sum_all(mul(via_gather, c)))[qkv].data
    assert np.allclose(g_index, g_gather, rtol=1e-12, atol=1e-15)
    assert np.all(g_index[1] == 0.0) and np.all(np.abs(g_index[[0, 2, 3, 4, 5]]).sum(axis=1) > 0)


def closure_arrays(fn):
    """Every numpy array a closure holds, through nested functions, tuples,
    lists and tensors."""
    found, todo, seen = [], [c.cell_contents for c in fn.__closure__ or ()], set()
    while todo:
        v = todo.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, Tensor):
            todo.append(v.data)
        elif callable(v) and getattr(v, "__closure__", None):
            todo.extend(c.cell_contents for c in v.__closure__)
        elif isinstance(v, (tuple, list)):
            todo.extend(v)
    return found


def test_prefix_attention_keeps_the_table_not_a_row_per_interaction():
    # 9 interactions read a 6-row table: backward holds the table, index
    # arrays and the weights, no float array with a row per interaction, and
    # the accountant counts exactly the table
    a = pa_table_args(np.random.default_rng(17))
    qkv = concat([a["q_all"], a["k_all"], a["v_all"]], axis=1)    # non-leaf; concat keeps nothing
    acct = CountingAccountant()
    with track_activations(acct):
        u = prefix_attention(qkv, PA_TABLE_ROWS, a["w_pool"], a["v_pool"], PA_LENGTHS)
        assert acct.current == qkv.size == 6 * 10
        floats = [arr for arr in closure_arrays(u._backward) if arr.dtype.kind == "f"]
        weights = (qkv.data, a["w_pool"].data, a["v_pool"].data)
        assert floats and all(any(arr is w for w in weights) for arr in floats)
        assert all(arr.ndim == 0 or arr.shape[0] != 9 for arr in closure_arrays(u._backward)
                   if arr.dtype.kind == "f")
        backward(sum_all(u))
    assert acct.current == 0


def test_prefix_attention_float32_outputs_and_gradients():
    args = pa_args(np.random.default_rng(7), np.float32)
    u = pa(args)
    assert u.shape == (7, 4) and u.dtype == np.float32
    grads = backward(sum_all(u))
    assert all(grads[t].dtype == np.float32 and grads[t].shape == t.shape for t in args.values())


def test_prefix_attention_rejects_mixed_dtypes_and_bad_shapes():
    a = pa_args(np.random.default_rng(8))
    with pytest.raises(TypeError):
        pa(dict(a, v_pool=tensor(a["v_pool"].data.astype(np.float32))))
    bad = [
        (dict(a, k_all=tensor(np.zeros((9, 2)))), PA_LENGTHS),  # qkv not 2*d_h + d wide
        (dict(a, v_all=tensor(np.zeros((9, 5)))), PA_LENGTHS),
        (dict(a, w_pool=tensor(np.zeros((3, 4)))), PA_LENGTHS),
        (dict(a, w_pool=tensor(np.zeros(12))), PA_LENGTHS),
        (dict(a, v_pool=tensor(np.zeros(3))), PA_LENGTHS),
        (a, np.array([1] * 9)),                                 # no proper prefix
        (a, PA_LENGTHS[None]),
    ]
    for args, lengths in bad:
        with pytest.raises(ShapeError, match="prefix_attention"):
            pa(args, lengths)
    with pytest.raises(ShapeError):                 # a 1-D qkv
        prefix_attention(tensor(np.zeros(10)), np.arange(9), a["w_pool"], a["v_pool"], PA_LENGTHS)
    with pytest.raises(ShapeError, match="prefix_attention: ids must be 1-D"):
        pa(a, rows=np.arange(9)[None])
    for rows in ([0, 1, 2, 3, 4, 5, 6, 7, 9], [-1, 1, 2, 3, 4, 5, 6, 7, 8]):
        with pytest.raises(IndexError, match="prefix_attention: id out of range"):
            pa(a, rows=np.array(rows))
    for lengths in ([2], [2, 6], [2, 8], [-1, 10], []):
        with pytest.raises(ShapeError, match="prefix_attention: lengths must .* sum to .* 9 rows"):
            pa(a, np.array(lengths, dtype=int))
    with pytest.raises(ShapeError, match="prefix_attention: lengths must .* sum to .* 8 rows"):
        pa(a, rows=np.arange(8))                    # an index one interaction short


def test_prefix_attention_raises_naming_its_prefix_length():
    # row 3 is read first by user 1's length-2 prefix, where its q.k overflows
    a = pa_args(np.random.default_rng(9))
    for name in ("q_all", "k_all"):
        a[name].data[3] = 1e200
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="prefix length 2"):
        pa(a)


def test_prefix_attention_saves_only_its_operands_and_nothing_under_no_grad():
    a = pa_args(np.random.default_rng(10))
    acct = CountingAccountant()
    with track_activations(acct):
        with no_grad():
            pa(a)
        assert acct.peak == 0
        # pa's concat makes qkv a non-leaf operand, so the op's own count shows
        loss = sum_all(pa(a))
    assert acct.current == 9 * 10       # q, k and v in one array; no per-prefix array
    backward(loss)
    assert acct.current == 0


# Both fused ops over users of 3, 1, 0 and 2 interactions: rows 0-2, 3 and
# 4-5. A user's last row predicts nothing and is read by no step or
# prefix, so it gets exactly zero gradient, as does the 1-interaction
# user's only row; the 0-interaction user owns no row and no slot.
FUSED_LENGTHS = np.array([3, 1, 0, 2])


def fused_outputs(op, lengths, x):
    rng = np.random.default_rng(12)
    if op == "gru_scan":
        w_hh, b_hh = Tensor(0.5 * rng.standard_normal((3, 9))), Tensor(rng.standard_normal(9))
        return gru_scan(x, w_hh, b_hh, lengths)
    w_pool, v_pool = Tensor(0.5 * rng.standard_normal((4, 3))), Tensor(rng.standard_normal((3, 1)))
    return prefix_attention(x, np.arange(x.shape[0]), w_pool, v_pool, lengths)


@pytest.mark.parametrize("op,width", [("gru_scan", 9), ("prefix_attention", 10)])
def test_fused_ops_pass_no_gradient_to_unread_rows(op, width):
    x = leaf(np.random.default_rng(11), (6, width))
    out = fused_outputs(op, FUSED_LENGTHS, x)
    assert out.shape[0] == 2 + 1            # slots: steps 0 and 1 of user 0, step 0 of user 3
    g = backward(sum_all(mul(out, Tensor(np.random.default_rng(13).standard_normal(out.shape)))))
    dx = g[x].data
    assert np.all(dx[[2, 3, 5]] == 0.0)     # user 0's last row, the 1-row user, user 3's last
    assert np.all(np.abs(dx[[0, 1, 4]]).sum(axis=1) > 0)


@pytest.mark.parametrize("op,width", [("gru_scan", 9), ("prefix_attention", 10)])
def test_fused_ops_accept_users_without_interactions(op, width):
    # dropping the 0-interaction user leaves every slot's value unchanged
    x = tensor(np.random.default_rng(14).standard_normal((6, width)))
    with_empty = fused_outputs(op, FUSED_LENGTHS, x).data
    assert np.array_equal(with_empty, fused_outputs(op, FUSED_LENGTHS[[0, 1, 3]], x).data)


# ce_block over items of 3, 3, 1 and 4 tokens with d=4 and d_ff=5: the two
# 3-token items form one run of the attention loop, the 1-token item's
# softmax has one element, and the 4-token item follows a shorter one
CB_LENGTHS = np.array([3, 3, 1, 4])
CB_SHAPES = {"x": (11, 4), "wq": (4, 4), "wk": (4, 4), "wv": (4, 4), "wo": (4, 4),
             "w_ff1": (4, 5), "w_ff2": (5, 4)}


def cb_operand(rng, name, dtype=np.float64):
    # weights scaled like the encoder's init, so the softmax does not
    # saturate and few relu inputs sit near the kink
    v = rng.standard_normal(CB_SHAPES[name])
    if name != "x":
        v = 0.5 * v
    return tensor(v.astype(dtype), grad=True)


def cb_args(rng, dtype=np.float64):
    return {k: cb_operand(rng, k, dtype) for k in CB_SHAPES}


def cb(a, lengths=CB_LENGTHS):
    return ad.ce_block(*(a[k] for k in CB_SHAPES), lengths)


@pytest.mark.parametrize("wrt", list(CB_SHAPES))
def test_fd_ce_block(wrt):
    def make_f(rng):
        args = cb_args(rng)
        c = Tensor(rng.standard_normal((11, 4)))
        return lambda x: sum_all(mul(cb(dict(args, **{wrt: x})), c))

    run_trials(make_f, lambda rng: cb_operand(rng, wrt))


def test_ce_block_matches_per_op_layer_in_any_item_order():
    # the primitives of one encoder layer, per item: values and every
    # gradient agree to roundoff, also when equal lengths are not adjacent
    lengths = np.array([3, 1, 3, 4])
    a = cb_args(np.random.default_rng(11))
    c = Tensor(np.random.default_rng(12).standard_normal((11, 4)))
    fused = sum_all(mul(cb(a, lengths), c))
    rows, lo = [], 0
    for n in lengths:
        x = gather(a["x"], np.arange(lo, lo + n))
        q, k, v = (matmul(x, a[w]) for w in ("wq", "wk", "wv"))
        att = matmul(softmax(scale(matmul(q, transpose(k)), 1.0 / np.sqrt(4)), axis=-1), v)
        x1 = add(x, matmul(att, a["wo"]))
        rows.append(add(x1, matmul(relu(matmul(x1, a["w_ff1"])), a["w_ff2"])))
        lo += n
    per_op = sum_all(mul(concat(rows, axis=0), c))
    assert fused.item() == pytest.approx(per_op.item(), rel=1e-13)
    g_fused, g_ref = backward(fused), backward(per_op)
    for name, t in a.items():
        gap = np.max(np.abs(g_fused[t].data - g_ref[t].data)) / np.max(np.abs(g_ref[t].data))
        assert gap <= 1e-13, name


def test_ce_block_float32_outputs_and_gradients():
    args = cb_args(np.random.default_rng(13), np.float32)
    out = cb(args)
    assert out.shape == (11, 4) and out.dtype == np.float32
    grads = backward(sum_all(out))
    assert all(grads[t].dtype == np.float32 and grads[t].shape == t.shape for t in args.values())


def test_ce_block_rejects_mixed_dtypes_and_bad_shapes():
    a = cb_args(np.random.default_rng(14))
    with pytest.raises(TypeError):
        cb(dict(a, wo=tensor(a["wo"].data.astype(np.float32))))
    bad = [
        (dict(a, wk=tensor(np.zeros((4, 5)))), CB_LENGTHS),
        (dict(a, w_ff1=tensor(np.zeros((5, 5)))), CB_LENGTHS),
        (dict(a, w_ff2=tensor(np.zeros((4, 4)))), CB_LENGTHS),     # d_ff disagrees
        (dict(a, x=tensor(np.zeros(44))), CB_LENGTHS),
        (a, np.array([3, 3, 1, 3])),        # 10 of 11 rows
        (a, np.array([3, 3, 0, 5])),        # an empty item
        (a, CB_LENGTHS[:0]),
    ]
    for args, lengths in bad:
        with pytest.raises(ShapeError):
            cb(args, lengths)


def test_ce_block_raises_naming_its_token_length():
    # a row of the 4-token item overflows its q.k; the shorter items are fine
    a = cb_args(np.random.default_rng(15))
    a["x"].data[8] = 1e200
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteError, match="ce_block .* token length 4"):
        cb(a)


def test_ce_block_accounts_saved_arrays_and_keeps_none_under_no_grad():
    a = cb_args(np.random.default_rng(16))
    acct = CountingAccountant()
    with track_activations(acct):
        with no_grad():
            cb(a)
        assert acct.peak == 0
        loss = sum_all(cb(dict(a, x=scale(a["x"], 1.0))))
    # x, the (11, 12) q/k/v, the 3*3 + 3*3 + 1 + 4*4 probabilities, the
    # attended values, x1 and the (11, 5) relu output
    assert acct.current == 44 + 132 + 35 + 44 + 44 + 55
    backward(loss)
    assert acct.current == 0


def test_fd_segment_mean():
    lengths = np.array([2, 1, 3])

    def make_f(rng):
        c = Tensor(rng.standard_normal((3, 4)))
        return lambda x: sum_all(mul(ad.segment_mean(x, lengths), c))

    run_trials(make_f, lambda rng: leaf(rng, (6, 4)))


def test_segment_mean_values_dtype_and_bad_lengths():
    x = tensor(np.arange(12.0).reshape(6, 2).astype(np.float32), grad=True)
    out = ad.segment_mean(x, [2, 1, 3])
    assert out.dtype == np.float32
    assert np.array_equal(out.data, [[1, 2], [4, 5], [8, 9]])
    assert backward(sum_all(out))[x].dtype == np.float32
    for lengths in ([2, 1, 2], [2, 0, 4], [], [[2, 1, 3]]):
        with pytest.raises(ShapeError):
            ad.segment_mean(x, lengths)


def test_nonfinite_op_raises():
    with pytest.raises(NonFiniteError):
        tensor([np.inf])
    big = tensor([1e308])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        mul(big, big)


def test_float32_mode():
    ad.set_default_dtype(np.float32)
    try:
        x = tensor([1.0, 2.0], grad=True)
        assert x.dtype == np.float32
        out = sigmoid(x)
        assert out.dtype == np.float32
        g = backward(sum_all(out))[x]
        assert g.dtype == np.float32
    finally:
        ad.set_default_dtype(np.float64)


def test_default_dtype_is_per_thread():
    # a thread that switches to float32 leaves the main thread at float64
    seen = []

    def worker():
        ad.set_default_dtype(np.float32)
        seen.extend([ad.default_dtype(), tensor([1.0]).dtype, ad.zeros(2).dtype])

    t = threading.Thread(target=worker)
    t.start()
    t.join()
    try:
        assert seen == [np.float32] * 3
        assert ad.default_dtype() == np.float64
        assert tensor([1.0]).dtype == np.float64
        assert ad.zeros(2).dtype == np.float64
        assert Tensor(np.array([1, 2])).dtype == np.float64
    finally:
        ad.set_default_dtype(np.float64)


class CountingAccountant:
    """Minimal stand-in for instrument.ActivationAccountant."""

    def __init__(self):
        self.current = 0
        self.peak = 0

    def acquire(self, n):
        self.current += n
        self.peak = max(self.peak, self.current)

    def release(self, n):
        self.current -= n


def test_activation_accounting_acquires_and_releases():
    acct = CountingAccountant()
    x = tensor(np.ones((4, 3)), grad=True)
    w = tensor(np.ones((3, 2)), grad=True)
    with track_activations(acct):
        h = matmul(x, w)        # saves only leaves -> 0
        s = sigmoid(h)          # saves its 4x2 output -> 8
        loss = sum_all(s)       # saves nothing
    assert acct.current == 8
    assert acct.peak == 8
    backward(loss)
    assert acct.current == 0
    assert acct.peak == 8


def test_activation_accounting_counts_nonleaf_operands():
    acct = CountingAccountant()
    x = tensor(np.ones((2, 3)), grad=True)
    with track_activations(acct):
        h = add(x, x)        # no saved values
        out = mul(h, h)      # saves h twice (both operands non-leaf) -> 12
        loss = sum_all(out)
    assert acct.peak == 12
    backward(loss)
    assert acct.current == 0


def test_leaf_data_not_counted_as_activation():
    acct = CountingAccountant()
    x = tensor(np.ones((5, 5)), grad=True)
    w = tensor(np.ones((5, 5)), grad=True)
    with track_activations(acct):
        loss = sum_all(mul(x, w))  # both operands are leaves
    assert acct.peak == 0
    backward(loss)
