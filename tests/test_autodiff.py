"""Unit tests for the reverse-mode autodiff engine.

Hand-computed values pin down the easy cases; central finite differences
(grad_check, eps=1e-6) act as the oracle for every primitive's backward
rule on batches of seeded random inputs.
"""

import platform
import sys
import tracemalloc

import numpy as np
import pytest
import reference_cf as R

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


def test_sigmoid_one_division_matches_the_two_branch_form_bitwise():
    # the numerator picked by sign, over one shared denominator, gives the
    # bytes of dividing in each np.where branch, NaN and signed zeros included
    x = np.concatenate(([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300],
                        np.linspace(-40.0, 40.0, 801)))
    for dt in (np.float64, np.float32):
        xd = x.astype(dt)
        e = np.exp(-np.abs(xd))
        two_branch = np.where(xd >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        out = ad._sigmoid(xd)
        assert out.dtype == two_branch.dtype == dt
        assert out.tobytes() == two_branch.tobytes()


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
    x = tensor([20.0], grad=True, dtype=np.float32)
    right = bce_loss(x, tensor([1.0], dtype=np.float32))
    wrong = bce_loss(x, tensor([0.0], dtype=np.float32))
    assert right.dtype == wrong.dtype == np.float32
    assert right.item() == pytest.approx(2.06e-9, rel=1e-2)
    assert wrong.item() == pytest.approx(20.0, rel=1e-6)
    assert backward(right)[x].dtype == np.float32


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
    out2 = mse_half(Tensor(same.data), same)
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


@pytest.mark.parametrize("axis", [-1, 0, 1])
def test_fd_softmax(axis):
    def make_f(rng):
        c = Tensor(rng.standard_normal((3, 4, 5)))
        return lambda x: sum_all(mul(softmax(x, axis=axis), c))

    run_trials(make_f, lambda rng: leaf(rng, (3, 4, 5)))


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
    with pytest.raises(ShapeError, match=r"seed shape \(\) for output shape \(2,\)"):
        backward(mul(x, x))


def test_backward_seed_must_have_the_output_shape():
    x = tensor([1.0, 2.0], grad=True)
    with pytest.raises(ShapeError, match=r"seed shape \(3,\) for output shape \(2,\)"):
        backward(mul(x, x), np.ones(3))
    with pytest.raises(ShapeError, match=r"seed shape \(1,\) for output shape \(\)"):
        backward(sum_all(x), np.ones(1))
    g = np.array([3.0, -0.5])
    assert np.array_equal(backward(mul(x, x), g)[x].data, 2.0 * x.data * g)


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
# length order, so the op's longest-first slot order is not theirs, and the
# 1-interaction user has no slot. Unless a test passes its own index,
# interaction j reads row j of xg. ``gru`` hands the op the gate
# preactivations xg as its input rows, with an identity projection; the
# tests of the projection itself give it (10, 5) input rows x, w_ih and
# b_ih.
GRU_LENGTHS = np.array([2, 4, 1, 3])
GRU_SHAPES = {"xg": (10, 9), "w_hh": (3, 9), "b_hh": (9,)}
GRU_IN_SHAPES = {"x": (10, 5), "w_ih": (5, 9), "b_ih": (9,)}
GRU_PROJECTION_SHAPES = {**GRU_IN_SHAPES, "w_hh": (3, 9), "b_hh": (9,)}
GRU_TABLE_ROWS = np.array([2, 0, 2, 3, 0, 4, 5, 3, 1, 5])   # 6 rows; 0, 2, 3 and 5 read twice


def gru_operand(rng, name, dtype=np.float64):
    # Scaled so the gates do not saturate: a saturated gate's gradient is
    # so small that central differences measure mostly rounding. For the
    # same reason b_hh keeps away from 0: from h = 0 the first step's
    # reset-gate gradient is proportional to b_hh's candidate part.
    v = 0.5 * rng.standard_normal({**GRU_SHAPES, **GRU_IN_SHAPES}[name])
    if name == "b_hh":
        v = np.sign(v) * (0.5 + np.abs(v))
    return tensor(v.astype(dtype), grad=True)


def gru_args(rng, dtype=np.float64, shapes=GRU_SHAPES):
    return {k: gru_operand(rng, k, dtype) for k in shapes}


def identity_projection(width, dtype=np.float64):
    """A weight and bias that project rows to themselves: x @ I + 0 is x
    and g @ I.T is g, exactly, so a fused op reads its input rows as they
    are and passes them their gradients as they are."""
    return tensor(np.eye(width, dtype=dtype)), tensor(np.zeros(width, dtype=dtype))


def gru(a, lengths=GRU_LENGTHS, rows=None):
    """gru_scan over a["xg"]'s rows, or over a["x"]'s rows projected by
    a["w_ih"] and a["b_ih"] when those are given."""
    x = a.get("x", a.get("xg"))
    w_ih, b_ih = (a["w_ih"], a["b_ih"]) if "w_ih" in a else identity_projection(9, x.dtype)
    rows = np.arange(x.shape[0]) if rows is None else rows
    return gru_scan(x, rows, w_ih, b_ih, a["w_hh"], a["b_hh"], lengths)


@pytest.mark.parametrize("wrt", list(GRU_SHAPES))
def test_fd_gru_scan(wrt):
    def make_f(rng):
        args = gru_args(rng)
        c = Tensor(rng.standard_normal((6, 3)))
        return lambda x: sum_all(mul(gru(dict(args, **{wrt: x})), c))

    run_trials(make_f, lambda rng: gru_operand(rng, wrt))


@pytest.mark.parametrize("wrt", list(GRU_IN_SHAPES))
def test_fd_gru_scan_projection(wrt):
    def make_f(rng):
        args = gru_args(rng, shapes=GRU_PROJECTION_SHAPES)
        c = Tensor(rng.standard_normal((6, 3)))
        return lambda x: sum_all(mul(gru(dict(args, **{wrt: x})), c))

    run_trials(make_f, lambda rng: gru_operand(rng, wrt))


def test_gru_scan_projection_equals_the_per_op_projection_it_fuses():
    # the op's x @ w_ih + b_ih against the matmul and bias add it replaced,
    # fed to the op over an identity projection, on a 6-row table read
    # through a repeating index: values and gradients agree bit for bit
    rng = np.random.default_rng(18)
    a = gru_args(rng, shapes=GRU_PROJECTION_SHAPES)
    a["x"] = tensor(a["x"].data[:6], grad=True)
    c = Tensor(rng.standard_normal((6, 3)))
    fused = gru(a, rows=GRU_TABLE_ROWS)
    per_op = gru({"xg": add(matmul(a["x"], a["w_ih"]), a["b_ih"]), "w_hh": a["w_hh"],
                  "b_hh": a["b_hh"]}, rows=GRU_TABLE_ROWS)
    assert np.array_equal(fused.data, per_op.data)
    g_fused = backward(sum_all(mul(fused, c)))
    g_per_op = backward(sum_all(mul(per_op, c)))
    for k, t in a.items():
        assert np.array_equal(g_fused[t].data, g_per_op[t].data), k


def gru_user_states(x, w, b, rows):
    """The cell run over table rows *rows* in turn from h = 0: the state
    after each of them."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    dh, h, states = w.shape[0], np.zeros(w.shape[0]), []
    for r in rows:
        hg = h @ w + b
        rz = sig(x[r, :2 * dh] + hg[:2 * dh])
        c = np.tanh(x[r, 2 * dh:] + rz[:dh] * hg[2 * dh:])
        h = c + rz[dh:] * (h - c)
        states.append(h)
    return states


def test_gru_scan_matches_a_per_user_loop():
    # the cell run user by user; slots ordered step, then users longest first
    a = gru_args(np.random.default_rng(2))
    x, w, b = (a[k].data for k in GRU_SHAPES)
    slots, first = [], np.cumsum(GRU_LENGTHS) - GRU_LENGTHS
    for u, (f, n_u) in enumerate(zip(first, GRU_LENGTHS)):
        for n, h in enumerate(gru_user_states(x, w, b, range(f, f + n_u - 1))):
            slots.append((n, -n_u, u, h))
    expected = np.array([h for *_, h in sorted(slots, key=lambda s: s[:3])])
    assert np.allclose(gru(a).data, expected, rtol=1e-12, atol=1e-14)


GRU_ONE_STEP = np.array([2, 2, 2, 2, 2])     # every user predicts one slot, at step 0


def test_gru_scan_of_one_step_matches_a_per_user_loop():
    a = gru_args(np.random.default_rng(7))
    x, w, b = (a[k].data for k in GRU_SHAPES)
    expected = [gru_user_states(x, w, b, [f])[0] for f in range(0, 10, 2)]
    assert np.allclose(gru(a, GRU_ONE_STEP).data, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("wrt", list(GRU_SHAPES))
def test_fd_gru_scan_of_one_step(wrt):
    # from h = 0 the one step reads no w_hh: its gradient must be exactly 0
    def make_f(rng):
        args = gru_args(rng)
        c = Tensor(rng.standard_normal((5, 3)))
        return lambda x: sum_all(mul(gru(dict(args, **{wrt: x}), GRU_ONE_STEP), c))

    run_trials(make_f, lambda rng: gru_operand(rng, wrt))


def test_gru_scan_float32_outputs_and_gradients():
    # the f32 op agrees with the f64 op on the same operands
    rng = np.random.default_rng(3)
    args = gru_args(rng, np.float32, GRU_PROJECTION_SHAPES)
    wide = {k: tensor(t.data.astype(np.float64), grad=True) for k, t in args.items()}
    c = rng.standard_normal((6, 3))
    h, h64 = gru(args), gru(wide)
    assert h.shape == (6, 3) and h.dtype == np.float32
    assert ad._rel_err(h.data.astype(np.float64), h64.data) <= 1e-5
    grads = backward(sum_all(mul(h, Tensor(c.astype(np.float32)))))
    grads64 = backward(sum_all(mul(h64, Tensor(c))))
    for k, t in args.items():
        assert grads[t].dtype == np.float32 and grads[t].shape == t.shape
        assert ad._rel_err(grads[t].data.astype(np.float64), grads64[wide[k]].data) <= 1e-5, k


def test_gru_scan_rejects_mixed_dtypes_and_bad_shapes():
    rng = np.random.default_rng(4)
    a = gru_args(rng)
    with pytest.raises(TypeError):
        gru(dict(a, w_hh=tensor(a["w_hh"].data.astype(np.float32))))
    with pytest.raises(TypeError):
        gru(dict(a, x=a["xg"], w_ih=tensor(np.eye(9, dtype=np.float32)), b_ih=tensor(np.zeros(9))))
    w_ih, b_ih = identity_projection(9)
    bad = [
        (dict(a, w_hh=tensor(np.zeros((3, 6)))), GRU_LENGTHS),   # w_hh not (d_h, 3*d_h)
        (dict(a, b_hh=tensor(np.zeros(6))), GRU_LENGTHS),
        (dict(a, xg=tensor(np.zeros((10, 6)))), GRU_LENGTHS),   # x does not fit w_ih
        (dict(a, x=a["xg"], w_ih=tensor(np.zeros((9, 6))), b_ih=b_ih), GRU_LENGTHS),
        (dict(a, x=a["xg"], w_ih=w_ih, b_ih=tensor(np.zeros(6))), GRU_LENGTHS),
        (dict(a, x=tensor(np.zeros(9)), w_ih=w_ih, b_ih=b_ih), GRU_LENGTHS),   # a 1-D x
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
    with pytest.raises(ShapeError, match="gru_scan: ids must be 1-D"):
        gru(a, rows=np.arange(10)[None])
    with pytest.raises(IndexError, match=r"gru_scan: id out of range \[0, 10\)"):
        gru(a, rows=np.r_[np.arange(9), 10])


def test_gru_scan_raises_naming_its_step():
    # h @ w_hh + b_hh is finite; adding the input side overflows at step 0
    a = gru_args(np.random.default_rng(5))
    a.update(xg=tensor(np.full((10, 9), 1e308)), b_hh=tensor(np.full(9, 1e308)))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="gru_scan .* step 0"):
        gru(a)


def test_gru_scan_names_an_overflow_first_at_step_1():
    # from h = 0 step 0 reads no w_hh and stays finite; the state it leaves
    # is near (1, 1, 1), so step 1's h @ w_hh overflows
    a = gru_args(np.random.default_rng(5))
    xg = np.tile(np.r_[np.full(6, -30.0), np.full(3, 30.0)], (10, 1))
    a.update(xg=tensor(xg), w_hh=tensor(np.full((3, 9), 1e308)), b_hh=tensor(np.ones(9)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError, match="gru_scan .* step 1$"):
        gru(a)


@pytest.mark.parametrize("b_hh,n_checks", [(None, 1), (1e308, 1 + 2 * 3)], ids=["bounded", "unbounded"])
def test_gru_scan_checks_its_steps_only_when_an_overflow_is_possible(monkeypatch, b_hh, n_checks):
    # the output's own check always runs; a b_hh of 1e308 lifts the bound
    # past the dtype's range, so each of the 3 steps checks both
    # preactivations, though none overflows
    a = gru_args(np.random.default_rng(8))
    if b_hh is not None:
        a.update(b_hh=tensor(np.full(9, b_hh)))
    w_ih, b_ih = identity_projection(9)    # built before counting: a tensor checks its data
    a.update(x=a["xg"], w_ih=w_ih, b_ih=b_ih)
    calls, isfinite = [], np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda v: calls.append(1) or isfinite(v))
    with no_grad():
        gru(a)
    assert len(calls) == n_checks


@pytest.mark.parametrize("rows", [GRU_TABLE_ROWS, np.arange(10)], ids=["repeating", "identity"])
def test_gru_scan_through_an_index_equals_gru_scan_over_gathered_rows(rows):
    # reading the table through the index is reading its gather: the
    # values agree, and every gradient equals the gather's scatter-add,
    # summed in the same order (the identity projection passes each row
    # its gradient as it is)
    rng = np.random.default_rng(17)
    a = gru_args(rng)
    table = tensor(a["xg"].data[:rows.max() + 1], grad=True)
    c = Tensor(rng.standard_normal((6, 3)))
    via_index = gru(dict(a, xg=table), rows=rows)
    via_gather = gru(dict(a, xg=gather(table, rows)))
    assert np.array_equal(via_index.data, via_gather.data)
    g_index = backward(sum_all(mul(via_index, c)))
    g_gather = backward(sum_all(mul(via_gather, c)))
    for t in (table, a["w_hh"], a["b_hh"]):
        assert np.array_equal(g_index[t].data, g_gather[t].data)


def test_gru_scan_accounts_saved_arrays_and_keeps_none_under_no_grad():
    a = gru_args(np.random.default_rng(6))
    acct = CountingAccountant()
    with track_activations(acct):
        with no_grad():
            gru(a)
        assert acct.peak == 0
        loss = sum_all(gru(a))
        # xg is a leaf, so only the states, 6 slots of d_h = 3; backward
        # rebuilds the projection, r, z, c and hg_c
        assert acct.current == 6 * 3
        backward(loss)
        assert acct.current == 0
        # a non-leaf input adds its (10, 9) rows and nothing else
        loss = sum_all(gru(dict(a, xg=scale(a["xg"], 1.0))))
        assert acct.current == 10 * 9 + 6 * 3
        backward(loss)
    assert acct.current == 0


# prefix_attention over users of 2 and 7 interactions (rows 0-1 and 2-8)
# with d_h=3 and d=4: prefix lengths 1 .. 6 give 2 + 5 * 1 slots. The
# 2-interaction user appears only at n=1, where both softmaxes have one
# element and pass no gradient to q, k or the pooling weights. ``pa``
# hands the op a (9, 3 + 3 + 4) table built by concat from q_all, k_all
# and v_all as its input rows, with an identity projection, so each
# finite-difference check covers one column block of it; the tests of the
# projection itself give it (6, 5) input rows x, read through
# PA_TABLE_ROWS, and wq, wk and wv.
PA_LENGTHS = np.array([2, 7])
PA_SHAPES = {"q_all": (9, 3), "k_all": (9, 3), "v_all": (9, 4), "w_pool": (4, 3), "v_pool": (3, 1)}
PA_IN_SHAPES = {"x": (6, 5), "wq": (5, 3), "wk": (5, 3), "wv": (5, 4)}


def pa_operand(rng, name, dtype=np.float64):
    # w_pool is halved so tanh does not saturate. v_pool keeps away from 0:
    # column j of w_pool's gradient is proportional to v_pool[j], and a
    # near-zero column is so small that central differences measure
    # mostly rounding.
    v = rng.standard_normal({**PA_SHAPES, **PA_IN_SHAPES}[name])
    if name in ("w_pool", "wq", "wk", "wv"):
        v = 0.5 * v
    if name == "v_pool":
        v = np.sign(v) * (0.5 + np.abs(v))
    return tensor(v.astype(dtype), grad=True)


def pa_args(rng, dtype=np.float64, shapes=PA_SHAPES):
    return {k: pa_operand(rng, k, dtype) for k in shapes}


def qkv_identity(dh=3, d=4, dtype=np.float64):
    """wq, wk and wv that read a (P, 2*dh + d) table as its q, k and v
    column blocks: side by side they are the identity (see
    ``identity_projection``)."""
    eye = np.eye(2 * dh + d, dtype=dtype)
    return [tensor(eye[:, lo:hi]) for lo, hi in ((0, dh), (dh, 2 * dh), (2 * dh, 2 * dh + d))]


def pa(a, lengths=PA_LENGTHS, rows=None):
    """prefix_attention over the table concat([q_all, k_all, v_all]), or
    over a["x"]'s rows projected by a["wq"], a["wk"] and a["wv"] when
    those are given."""
    if "x" in a:
        x, ws = a["x"], [a["wq"], a["wk"], a["wv"]]
    else:
        x = concat([a["q_all"], a["k_all"], a["v_all"]], axis=1)
        ws = qkv_identity(dtype=x.dtype)
    rows = np.arange(x.shape[0]) if rows is None else rows
    return prefix_attention(x, rows, *ws, a["w_pool"], a["v_pool"], lengths)


@pytest.mark.parametrize("wrt", list(PA_SHAPES))
def test_fd_prefix_attention(wrt):
    def make_f(rng):
        args = pa_args(rng)
        c = Tensor(rng.standard_normal((7, 4)))
        return lambda x: sum_all(mul(pa(dict(args, **{wrt: x})), c))

    run_trials(make_f, lambda rng: pa_operand(rng, wrt))


PA_PROJECTION_SHAPES = {**PA_IN_SHAPES, "w_pool": (4, 3), "v_pool": (3, 1)}


@pytest.mark.parametrize("wrt", list(PA_IN_SHAPES))
def test_fd_prefix_attention_projection(wrt):
    def make_f(rng):
        args = pa_args(rng, shapes=PA_PROJECTION_SHAPES)
        c = Tensor(rng.standard_normal((7, 4)))
        return lambda x: sum_all(mul(pa(dict(args, **{wrt: x}), rows=PA_TABLE_ROWS), c))

    run_trials(make_f, lambda rng: pa_operand(rng, wrt))


def test_prefix_attention_projection_equals_the_per_op_projection_it_fuses():
    # the op's x @ [wq | wk | wv] against the weight concat and matmul it
    # replaced, fed to the op over an identity projection: values and
    # gradients agree bit for bit
    rng = np.random.default_rng(19)
    a = pa_args(rng, shapes=PA_PROJECTION_SHAPES)
    c = Tensor(rng.standard_normal((7, 4)))
    fused = pa(a, rows=PA_TABLE_ROWS)
    table = matmul(a["x"], concat([a["wq"], a["wk"], a["wv"]], axis=1))
    per_op = prefix_attention(table, PA_TABLE_ROWS, *qkv_identity(), a["w_pool"], a["v_pool"],
                              PA_LENGTHS)
    assert np.array_equal(fused.data, per_op.data)
    g_fused = backward(sum_all(mul(fused, c)))
    g_per_op = backward(sum_all(mul(per_op, c)))
    for k, t in a.items():
        assert np.array_equal(g_fused[t].data, g_per_op[t].data), k


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
    ws = qkv_identity()
    via_index = prefix_attention(qkv, PA_TABLE_ROWS, *ws, a["w_pool"], a["v_pool"], PA_LENGTHS)
    via_gather = prefix_attention(gather(qkv, PA_TABLE_ROWS), np.arange(9), *ws, a["w_pool"],
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
    ws = qkv_identity()
    acct = CountingAccountant()
    with track_activations(acct):
        u = prefix_attention(qkv, PA_TABLE_ROWS, *ws, a["w_pool"], a["v_pool"], PA_LENGTHS)
        assert acct.current == qkv.size == 6 * 10
        floats = [arr for arr in closure_arrays(u._backward) if arr.dtype.kind == "f"]
        weights = (qkv.data, a["w_pool"].data, a["v_pool"].data, *(w.data for w in ws))
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
    x = concat([a["q_all"], a["k_all"], a["v_all"]], axis=1)
    wq, wk, wv = qkv_identity()
    with pytest.raises(TypeError):
        pa(dict(a, x=x, wq=wq, wk=wk, wv=tensor(wv.data.astype(np.float32))))
    for ws in ([wq, wk, tensor(np.zeros((10, 3)))], [tensor(np.zeros((9, 3))), wk, wv],
               [wq, tensor(np.zeros((10, 4))), wv]):
        with pytest.raises(ShapeError, match="prefix_attention"):
            pa(dict(a, x=x, wq=ws[0], wk=ws[1], wv=ws[2]))
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
    with pytest.raises(ShapeError):                 # a 1-D x
        prefix_attention(tensor(np.zeros(10)), np.arange(9), wq, wk, wv, a["w_pool"], a["v_pool"],
                         PA_LENGTHS)
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


def pa_values_and_grads(x, rows, w_pool, v_pool, lengths, g):
    """The op's output and the gradients of sum(output * g) with respect to
    the table, w_pool and v_pool, as ``R.prefix_attention_loop`` returns them."""
    leaves = [tensor(v, grad=True) for v in (x, w_pool, v_pool)]
    u = prefix_attention(leaves[0], rows, *qkv_identity(dtype=x.dtype), leaves[1], leaves[2],
                         lengths)
    grads = backward(sum_all(mul(u, Tensor(g))))
    return (u.data, *(grads[t].data for t in leaves))


def assert_matches_the_loop(x, rows, w_pool, v_pool, lengths, rtol, seed=0):
    """Outputs and gradients to *rtol* of each array's largest component,
    as the op's matmuls over padded (T, T) rows, whose masked terms are
    exact zeros, add in another order than the loop's over n positions."""
    g = np.random.default_rng(seed).standard_normal((int(np.maximum(lengths - 1, 0).sum()),
                                                     w_pool.shape[0])).astype(x.dtype)
    got = pa_values_and_grads(x, rows, w_pool, v_pool, lengths, g)
    want = R.prefix_attention_loop(x, rows, w_pool, v_pool, lengths, g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol * np.abs(b).max())
    return got


# float32 rounds at 6e-8 where float64 rounds at 1.1e-16, so its
# gradients get 1e-5 of their scale where float64's get 1e-12
@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_prefix_attention_matches_the_per_prefix_loop(dtype, rtol):
    # users of 0, 1 and 2 interactions among random lengths, reading a
    # table half as long as the interactions, so rows repeat
    rng = np.random.default_rng(21)
    for trial in range(12):
        lengths = rng.permutation(np.concatenate(([0, 1, 2], rng.integers(0, 14, size=5))))
        n_rows = int(lengths.sum()) // 2
        rows = rng.integers(0, n_rows, size=lengths.sum())
        assert np.unique(rows).size < rows.size
        x = rng.standard_normal((n_rows, 10)).astype(dtype)
        w_pool = (0.5 * rng.standard_normal((4, 3))).astype(dtype)
        v_pool = rng.standard_normal((3, 1)).astype(dtype)
        assert_matches_the_loop(x, rows, w_pool, v_pool, lengths, rtol, seed=trial)


def padded_overflow_table(lengths):
    # users read rows 0.. in order, the first user longest. Padding aliases
    # row 0: its key and every later user's queries are 1e200, so a
    # shorter user's padded q.k overflows while its live scores stay finite
    x = np.random.default_rng(22).standard_normal((sum(lengths), 10))
    x[0, 3:6] = 1e200
    x[lengths[0]:, :3] = 1e200
    return x


def test_prefix_attention_ignores_overflow_in_padding():
    # neither raised nor warned about, and the values are the loop's
    a = pa_args(np.random.default_rng(23))
    lengths = np.array([7, 2, 4])
    x = padded_overflow_table(lengths)
    with np.errstate(all="raise", under="ignore"):
        assert_matches_the_loop(x, np.arange(x.shape[0]), a["w_pool"].data, a["v_pool"].data,
                                lengths, 1e-12)
    # a leading 1-interaction user's row 0 is read by no prefix, so padding
    # aliases it. Its query and key at 1e200 overflow q.k, yet every output
    # and gradient is finite and equals those with a finite row 0, which
    # gets no gradient
    lengths = np.array([1, 7, 2, 4])
    x = np.vstack((np.random.default_rng(25).standard_normal((1, 10)),
                   padded_overflow_table(lengths[1:])))
    x_inf = x.copy()
    x_inf[0, :6] = 1e200
    g = np.random.default_rng(26).standard_normal((10, 4))
    with np.errstate(all="raise", under="ignore"):
        want = pa_values_and_grads(x, np.arange(14), a["w_pool"].data, a["v_pool"].data, lengths, g)
        got = pa_values_and_grads(x_inf, np.arange(14), a["w_pool"].data, a["v_pool"].data,
                                  lengths, g)
    for v, w in zip(got, want):
        assert np.isfinite(v).all() and np.array_equal(v, w)
    assert np.all(got[1][0] == 0.0)


def test_prefix_attention_names_the_shortest_prefix_of_a_live_overflow():
    # the last user's key at position 4 meets its 1e200 queries: the first
    # live overflow is prefix 5's, though padded pairs overflow from prefix 2
    a = pa_args(np.random.default_rng(24))
    lengths = np.array([7, 2, 6])
    x = padded_overflow_table(lengths)
    x[9 + 4, 3:6] = 1e200
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="prefix length 5$"):
        prefix_attention(tensor(x), np.arange(15), *qkv_identity(), a["w_pool"], a["v_pool"],
                         lengths)


# ||v_pool||_1 bounds each pooling score, so scores of one user lie up to
# 2 * ||v_pool||_1 apart: 2 000 in float64 and 200 in float32, past where
# exp of their spread underflows the dtype (about 745 and 104). One
# stabiliser per user would need a second path there; each softmax row has
# its own maximum, so one path stays exact
@pytest.mark.parametrize("dtype,norm,rtol", [(np.float64, 1000.0, 1e-12), (np.float32, 100.0, 1e-5)])
def test_prefix_attention_is_exact_at_any_pooling_scale(dtype, norm, rtol):
    rng = np.random.default_rng(27)
    lengths = np.array([9, 4, 12, 1, 6])
    x = rng.standard_normal((lengths.sum(), 10)).astype(dtype)
    w_pool = (0.5 * rng.standard_normal((4, 3))).astype(dtype)
    v_pool = rng.standard_normal((3, 1))
    v_pool = (v_pool * norm / np.abs(v_pool).sum()).astype(dtype)
    with np.errstate(all="raise", under="ignore"):
        got = assert_matches_the_loop(x, np.arange(x.shape[0]), w_pool, v_pool, lengths, rtol)
    assert all(np.isfinite(v).all() for v in got)


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
    # x's rows are projected by random weights, with widths d_h = 3, d = 4
    rng = np.random.default_rng(12)
    if op == "gru_scan":
        w_ih, b_ih = Tensor(0.5 * rng.standard_normal((x.shape[1], 9))), Tensor(rng.standard_normal(9))
        w_hh, b_hh = Tensor(0.5 * rng.standard_normal((3, 9))), Tensor(rng.standard_normal(9))
        return gru_scan(x, np.arange(x.shape[0]), w_ih, b_ih, w_hh, b_hh, lengths)
    wq, wk, wv = (Tensor(0.5 * rng.standard_normal((x.shape[1], n))) for n in (3, 3, 4))
    w_pool, v_pool = Tensor(0.5 * rng.standard_normal((4, 3))), Tensor(rng.standard_normal((3, 1)))
    return prefix_attention(x, np.arange(x.shape[0]), wq, wk, wv, w_pool, v_pool, lengths)


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


def attention_user_vector(x, w_pool, v_pool, rows):
    """The pooled user vector of one prefix reading table rows *rows*,
    position i attending over positions 0..i."""
    dh = w_pool.shape[1]
    q, k, v = x[rows, :dh], x[rows, dh:2 * dh], x[rows, 2 * dh:]
    ctx = R.softmax(np.where(np.tri(len(rows), dtype=bool), q @ k.T / np.sqrt(dh), -np.inf)) @ v
    w = R.softmax(np.tanh(ctx @ w_pool) @ v_pool, axis=0)
    return (w.T @ ctx)[0]


def test_fused_ops_return_their_slots_in_slot_order():
    # row k of each op is the state of slot_order's k-th (user, target_row)
    # pair, computed user by user. Lengths hold a tie, users of 0 and 1
    # interactions and one user longer than all others; rows repeat
    rng = np.random.default_rng(31)
    for _ in range(20):
        lengths = rng.permutation(np.concatenate(([0, 1, 3, 3, 9], rng.integers(0, 7, size=4))))
        first = np.cumsum(lengths) - lengths
        rows = rng.integers(0, lengths.sum(), size=lengths.sum())
        users, targets = ad.slot_order(lengths)
        assert sorted(zip(users.tolist(), targets.tolist())) == [
            (u, f + n) for u, (f, n_u) in enumerate(zip(first, lengths)) for n in range(1, n_u)]
        # step ascending, then users longest first, ties in user order
        order = np.lexsort((users, -lengths[users], targets - first[users]))
        assert np.array_equal(order, np.arange(users.size))

        x, w, b = (0.5 * rng.standard_normal(s) for s in ((lengths.sum(), 9), (3, 9), (9,)))
        states = [gru_user_states(x, w, b, rows[f:f + n_u - 1]) for f, n_u in zip(first, lengths)]
        h = gru_scan(tensor(x), rows, *identity_projection(9), tensor(w), tensor(b), lengths).data
        want = [states[u][t - first[u] - 1] for u, t in zip(users, targets)]
        np.testing.assert_allclose(h, want, rtol=1e-12, atol=1e-14)

        x, wp, vp = (rng.standard_normal(s) for s in ((lengths.sum(), 10), (4, 3), (3, 1)))
        u_vec = prefix_attention(tensor(x), rows, *qkv_identity(), tensor(wp), tensor(vp),
                                 lengths).data
        want = [attention_user_vector(x, wp, vp, rows[first[u]:t]) for u, t in zip(users, targets)]
        np.testing.assert_allclose(u_vec, want, rtol=1e-12, atol=1e-14)


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


def test_ce_block_backward_differentiates_at_the_weights_its_forward_read():
    # an optimizer replaces a parameter's data after a graph is built over
    # it; the block's gradients stay those at the forward's weights
    rng = np.random.default_rng(17)
    a = cb_args(rng)
    c = Tensor(rng.standard_normal((11, 4)))
    ref = backward(sum_all(mul(cb(a), c)))
    want = {name: ref[t].data for name, t in a.items()}
    loss = sum_all(mul(cb(a), c))
    for name, t in a.items():
        if name != "x":
            t.data = 3 * t.data
    got = backward(loss)
    for name, t in a.items():
        assert np.array_equal(got[t].data, want[name]), name


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
    # the (11, 4) x and the 3*3 + 3*3 + 1 + 4*4 probabilities: 44 + 35;
    # backward recomputes the q/k/v projection, the attended values, x1
    # and the relu output
    assert acct.current == 44 + 35 == 79
    backward(loss)
    assert acct.current == 0


def traced_bytes(make):
    """The bytes tracemalloc counts as newly held once make() returns, with
    its result kept, and the result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = make()
        return tracemalloc.get_traced_memory()[0] - base, out
    finally:
        tracemalloc.stop()


def graph_bytes(make):
    """What the graph of make()'s output holds: (bytes beyond a no-grad run
    that keeps the same output, the accountant's count, the output). A
    first call warms numpy's one-time caches."""
    with no_grad():
        make()
        free, _ = traced_bytes(make)
    acct = CountingAccountant()
    with track_activations(acct):
        held, out = traced_bytes(make)
    return held - free, acct.current, out


# a few small Python objects per graph: the node, its closure, the slot
# offsets or the run table; well below one of the arrays an op may drop
GRAPH_SLACK = 8 * 1024


def fused_predictor_operands(rng, lengths, dh=16, d=16):
    """Input rows x (P, 2d), P = lengths.sum(), and each fused predictor
    op's weights, at the model's shapes, as leaves."""
    p = int(lengths.sum())
    leaf = lambda *shape: tensor(0.3 * rng.standard_normal(shape), grad=True)
    gru_w = (leaf(2 * d, 3 * dh), leaf(3 * dh), leaf(dh, 3 * dh), leaf(3 * dh))
    pa_w = (leaf(2 * d, dh), leaf(2 * d, dh), leaf(2 * d, d), leaf(d, dh), leaf(dh, 1))
    return leaf(p, 2 * d), {"gru_scan": gru_w, "prefix_attention": pa_w}


def fused_predictor_index_bytes(op, lengths):
    """The index arrays a fused predictor op's backward keeps. gru_scan:
    the row each slot reads and the (steps, users) live mask.
    prefix_attention: the padded (B, T) table rows, their live mask and
    the (T, T) causal mask."""
    slots = int(np.maximum(lengths - 1, 0).sum())
    if op == "gru_scan":
        return slots * np.dtype(np.intp).itemsize + lengths.max() * lengths.size
    b, t = np.count_nonzero(lengths > 1), int(lengths.max()) - 1
    return b * t * (np.dtype(np.intp).itemsize + 1) + t * t


def test_gru_scan_graph_holds_only_its_states_and_index_arrays():
    # 100 users of 1..39 interactions, d_h = 16: ~1 900 slots, so one
    # (slots, d_h) array is ~240 KiB. The states are the output, which the
    # no-grad run keeps too, and x is a leaf, so beyond them the graph
    # holds only its index arrays: not the (P, 3*d_h) projected table.
    rng = np.random.default_rng(40)
    lengths = rng.integers(1, 40, size=100)
    x, ops = fused_predictor_operands(rng, lengths)
    extra, counted, out = graph_bytes(lambda: gru_scan(x, np.arange(x.shape[0]),
                                                       *ops["gru_scan"], lengths))
    assert counted == out.data.size
    index = fused_predictor_index_bytes("gru_scan", lengths)
    assert extra <= (counted - out.data.size) * out.data.itemsize + index + GRAPH_SLACK


@pytest.mark.parametrize("op", ["gru_scan", "prefix_attention"])
def test_fused_predictor_graph_holds_only_its_input_rows_and_index_arrays(op):
    # the same users with a non-leaf x, as the model's pair rows are: the
    # node counts x (and gru_scan its states), and beyond the no-grad run,
    # which keeps only the output, the graph holds only what it counts and
    # its index arrays; the projected table it rebuilds is (P, 48), ~370 KiB
    rng = np.random.default_rng(42)
    lengths = rng.integers(1, 40, size=100)
    x, ops = fused_predictor_operands(rng, lengths)
    fn = gru_scan if op == "gru_scan" else prefix_attention
    extra, counted, out = graph_bytes(lambda: fn(scale(x, 1.0), np.arange(x.shape[0]), *ops[op],
                                                 lengths))
    states = out.data.size if op == "gru_scan" else 0
    assert counted == x.data.size + states
    index = fused_predictor_index_bytes(op, lengths)
    assert extra <= (counted - states) * out.data.itemsize + index + GRAPH_SLACK


def test_ce_block_graph_holds_only_its_probabilities():
    # 60 items of 1..11 tokens, longest first as the encoder lays them out,
    # d = 16: x is a leaf, so the probabilities are all the node counts,
    # and the attended values it drops are (N, 16), ~50 KiB
    rng = np.random.default_rng(41)
    lengths = np.sort(rng.integers(1, 12, size=60))[::-1]
    d = 16
    x = tensor(rng.standard_normal((int(lengths.sum()), d)), grad=True)
    ws = [tensor(0.3 * rng.standard_normal(s), grad=True) for s in [(d, d)] * 4 + [(d, 24), (24, d)]]
    extra, counted, out = graph_bytes(lambda: ad.ce_block(x, *ws, lengths))
    assert counted == int((lengths ** 2).sum())
    assert extra <= counted * out.data.itemsize + GRAPH_SLACK


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
    x = tensor([1.0, 2.0], grad=True, dtype=np.float32)
    assert x.dtype == np.float32
    out = sigmoid(x)
    assert out.dtype == np.float32
    g = backward(sum_all(out))[x]
    assert g.dtype == np.float32


def test_python_input_and_zeros_are_float64():
    # a tensor keeps its array's float dtype; anything else becomes float64
    assert tensor([1.0]).dtype == np.float64
    assert ad.zeros(2).dtype == np.float64
    assert Tensor(np.array([1, 2])).dtype == np.float64
    assert Tensor(np.zeros(2, np.float32)).dtype == np.float32
    assert ad.zeros(2, dtype=np.float32).dtype == np.float32


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


# ---------------------------------------------------------------------------
# Heap policy
# ---------------------------------------------------------------------------


class FakeLibc:
    """A C library handle whose ``mallopt`` records its calls and answers
    from *replies*."""

    def __init__(self, *replies):
        self.calls, replies = [], list(replies)

        def mallopt(param, value):
            self.calls.append((param, value))
            return replies.pop(0)

        self.mallopt = mallopt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy needs glibc")
def test_heap_policy_takes_on_glibc():
    assert ad._keep_freed_heap() is True


@pytest.mark.parametrize("replies, n_calls", [((0, 1), 1), ((1, 0), 2), ((1, 1), 2)])
def test_heap_policy_stops_at_the_first_refused_call(monkeypatch, replies, n_calls):
    libc = FakeLibc(*replies)
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: libc)
    assert ad._keep_freed_heap() is (replies == (1, 1))
    assert libc.calls == list(ad._HEAP_POLICY[:n_calls])


def test_heap_policy_without_mallopt_changes_nothing(monkeypatch):
    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(sys, "platform", "linux")
    for cdll in (no_library, lambda name: object()):
        monkeypatch.setattr(ad.ctypes, "CDLL", cdll)
        assert ad._keep_freed_heap() is False


def test_heap_policy_is_a_no_op_off_linux(monkeypatch):
    libc = FakeLibc(1, 1)
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: libc)
    assert ad._keep_freed_heap() is False
    assert libc.calls == []
