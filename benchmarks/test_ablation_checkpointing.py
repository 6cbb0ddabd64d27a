"""Ablation: gradient checkpointing's memory/compute trade (§4.2).

The paper adopts gradient checkpointing during autoencoder training to fit
unrolled sparse inputs into device memory, trading recomputation time for
activation storage.  This bench measures both sides of the trade on an
autoencoder sized like the AMG app's input: estimated peak activation
bytes (less with checkpointing) and wall-clock per training (more with
checkpointing; best of 3 each, after one untimed warm-up), with
identical training losses either way.
"""

from __future__ import annotations

import time

import numpy as np

from repro.autoencoder import AETrainConfig, Autoencoder, train_autoencoder
from repro.nn import activation_bytes


def _train(ckpt: bool, x: np.ndarray):
    ae = Autoencoder(x.shape[1], 64, depth=6, activation="relu",
                     rng=np.random.default_rng(0))
    start = time.perf_counter()
    result = train_autoencoder(
        ae,
        x,
        AETrainConfig(num_epochs=10, lr=1e-3, gradient_checkpointing=ckpt,
                      checkpoint_segments=3, seed=1),
    )
    seconds = time.perf_counter() - start
    mem = activation_bytes(
        ae.encoder, x.shape[1], batch=32,
        checkpoint_segments=3 if ckpt else 0,
    )
    return result.train_losses, seconds, mem


def test_ablation_gradient_checkpointing(benchmark):
    rng = np.random.default_rng(3)
    x = np.tanh(rng.standard_normal((256, 8)) @ rng.standard_normal((8, 256)))

    def alternate(repeats=3):
        """Best of ``repeats`` per mode, the two modes timed in turn.

        One untimed training first: the first run in a fresh interpreter
        (or on a host that sat idle) is several times slower than the
        rest, and would otherwise land on whichever mode goes first.
        """
        _train(False, x)
        runs = {False: [], True: []}
        for _ in range(repeats):
            for ckpt in (False, True):
                runs[ckpt].append(_train(ckpt, x))
        return tuple(
            (runs[ckpt][0][0], min(r[1] for r in runs[ckpt]), runs[ckpt][0][2])
            for ckpt in (False, True)
        )

    (plain_losses, plain_s, plain_mem), (ckpt_losses, ckpt_s, ckpt_mem) = (
        benchmark.pedantic(alternate, rounds=1, iterations=1)
    )

    print("\n=== ablation: gradient checkpointing (paper §4.2) ===")
    print(f"{'mode':<16}{'epoch-10 loss':>15}{'wall (s)':>10}{'activation bytes':>18}")
    print(f"{'plain':<16}{plain_losses[-1]:>15.5f}{plain_s:>10.2f}{plain_mem:>18,}")
    print(f"{'checkpointed':<16}{ckpt_losses[-1]:>15.5f}{ckpt_s:>10.2f}{ckpt_mem:>18,}")
    print(f"memory saved: {1 - ckpt_mem / plain_mem:.1%}; "
          f"time overhead: {ckpt_s / plain_s - 1:+.1%}")

    # --- shape assertions: same math, less memory, more compute ---
    assert np.allclose(plain_losses, ckpt_losses, rtol=1e-8)
    assert ckpt_mem < plain_mem
    assert ckpt_s > plain_s * 0.9  # recompute never makes it faster
