"""A tour of the reverse-mode engine: building graphs, taking gradients,
and checking them against finite differences."""

import numpy as np

from gram import autodiff as ad
from gram.autodiff import Tensor, grad_check


def main():
    rng = np.random.default_rng(7)

    # leaves opt into gradient tracking explicitly
    w = Tensor(rng.standard_normal((4, 3)), grad_enabled=True)
    x = Tensor(rng.standard_normal((5, 4)))
    y = Tensor((rng.random(5) > 0.4).astype(float))

    # a tiny logistic regression: p = sigmoid(x @ w . v); bce_loss takes
    # the logits and sums the cross-entropy over the five examples
    v = Tensor(rng.standard_normal((3, 1)), grad_enabled=True)
    logits = ad.reshape(ad.matmul(ad.matmul(x, w), v), (5,))
    loss = ad.bce_loss(logits, y)
    print(f"summed loss = {loss.item():.6f}")

    grads = ad.backward(loss)
    print(f"dL/dw has shape {grads[w].shape}, |dL/dw| = {np.abs(grads[w].data).max():.4f}")
    print(f"dL/dv has shape {grads[v].shape}")

    # gradients are returned, not stored on tensors; leaves can be reused
    loss2 = ad.mse_half(ad.matmul(x, w), Tensor(np.zeros((5, 3))))
    grads2 = ad.backward(loss2)
    print(f"second graph over the same leaf: |dL2/dw| = {np.abs(grads2[w].data).max():.4f}")

    # finite differences confirm any scalar-valued composition
    f = lambda t: ad.bce_loss(ad.reshape(ad.matmul(ad.matmul(x, t), v), (5,)), y)
    print(f"fd check on w: max rel err = {grad_check(f, w):.2e}")

    # no_grad turns the engine off for pure evaluation
    with ad.no_grad():
        p = ad.sigmoid(logits := ad.reshape(ad.matmul(ad.matmul(x, w), v), (5,)))
        print(f"eval-only probabilities: {np.round(p.data, 3)}")
        print(f"graph recorded under no_grad: {logits.grad_enabled}")


if __name__ == "__main__":
    main()
