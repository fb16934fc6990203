"""Independent reference implementations the tests check against.

These stay deliberately naive (explicit loops, no im2col, no shared
code with the package) so they can serve as oracles for the fast paths.
`sum_all` is the one exception: a test helper over the package's
`weighted_sum`, not an oracle.
"""

import numpy as np

from bagnet.autodiff import weighted_sum


def sum_all(x):
    """Scalar sum of a Tensor, as a graph node (float64 accumulation)."""
    return weighted_sum(x, np.ones(x.shape))


def reference_conv2d(x, w, stride=1, pad=0):
    """Direct six-loop cross-correlation, float64 accumulation."""
    n, cin, h, win = x.shape
    cout, _, k, _ = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (win + 2 * pad - k) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for b in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(k):
                            for v in range(k):
                                acc += float(x[b, ci, i * stride + u, j * stride + v]) \
                                    * float(w[co, ci, u, v])
                    out[b, co, i, j] = acc
    return out


def reference_im2col(x, k, stride=1, pad=0):
    """Patch matrix by explicit gather: cols[b, (ci*k+u)*k+v, i*wo+j] =
    x_pad[b, ci, i*stride+u, j*stride+v], in the dtype of x."""
    n, cin, h, win = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (win + 2 * pad - k) // stride + 1
    cols = np.zeros((n, cin * k * k, ho * wo), dtype=x.dtype)
    for b in range(n):
        for ci in range(cin):
            for u in range(k):
                for v in range(k):
                    for i in range(ho):
                        for j in range(wo):
                            cols[b, (ci * k + u) * k + v, i * wo + j] = \
                                x[b, ci, i * stride + u, j * stride + v]
    return cols


def numerical_gradient(f, x, h=1e-3):
    """Central finite differences of a scalar function, elementwise."""
    x = np.asarray(x)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (fp - fm) / (2.0 * h)
    return grad


def numerical_gradient_relstep(f, x, rel=5e-2, floor=0.1):
    """Central differences with a step proportional to the value magnitude
    (float32-friendly)."""
    x = np.asarray(x)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        h = rel * max(abs(float(orig)), floor)
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_gradients_close(analytic, numeric, rtol, atol):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def reference_cell_scores(em, cls, p, grid):
    """Overlap-weighted cell scores by explicit loops over locations and the
    cells each window meets, in the float32 / float64 steps of the package:
    each term is rounded to float32, the sum runs in float64 in row-major
    location order."""
    gh, gw = grid
    scores = np.zeros((gh, gw), dtype=np.float64)
    _, hm, wm = em.logits.shape
    h, w = em.input_hw
    q = em.rf_size
    for i in range(hm):
        for j in range(wm):
            top, left = em.offset + i * em.stride, em.offset + j * em.stride
            value = em.logits[cls, i, j] / np.float32(q * q)
            for r in range(max(top, 0) // p, (min(top + q, h) - 1) // p + 1):
                oy = min(top + q, (r + 1) * p, h) - max(top, r * p, 0)
                for c in range(max(left, 0) // p, (min(left + q, w) - 1) // p + 1):
                    ox = min(left + q, (c + 1) * p, w) - max(left, c * p, 0)
                    scores[r, c] += value * np.float32(oy) * np.float32(ox)
    return scores.reshape(-1)

