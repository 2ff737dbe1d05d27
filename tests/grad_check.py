"""Central-difference check of the autodiff tape's gradients.

The tests of the tape's operations, of the policy's kernels and of whole
forward passes compare ``backward`` against ``finite_diff_check``.
"""

import numpy as np

from flipforge.autodiff import Tape, Tensor, backward, leaf


def finite_diff_check(forward, values, tolerance=1e-4, step=1e-5, max_coords=40, rng=None):
    """Compare tape gradients against central differences on sampled coordinates.

    ``forward`` maps a dict name -> Tensor to a scalar Tensor; ``values`` is a
    dict name -> ndarray of base points.  Returns (max relative error, ok flag).
    """
    rng = rng if rng is not None else np.random.default_rng(0)

    def loss_at(vals):
        out = forward({k: Tensor(v) for k, v in vals.items()})
        return float(out.data.reshape(-1)[0])

    tape = Tape()
    taped = {k: leaf(tape, v) for k, v in values.items()}
    loss_tensor = forward(taped)
    grads_by_id = backward(tape, loss_tensor)
    grads = {k: grads_by_id.get(t.node_id, np.zeros_like(t.data)) for k, t in taped.items()}

    worst = 0.0
    for name, base in values.items():
        flat = np.asarray(base, dtype=np.float64).reshape(-1)
        count = min(max_coords, flat.size)
        coords = rng.choice(flat.size, size=count, replace=False)
        for idx in coords:
            bumped = {k: np.array(v, dtype=np.float64, copy=True) for k, v in values.items()}
            bumped[name].reshape(-1)[idx] += step
            up = loss_at(bumped)
            bumped[name].reshape(-1)[idx] -= 2 * step
            down = loss_at(bumped)
            fd = (up - down) / (2 * step)
            an = float(np.asarray(grads[name]).reshape(-1)[idx])
            denom = max(abs(fd), abs(an), 1.0)
            worst = max(worst, abs(fd - an) / denom)
    return worst, worst < tolerance
