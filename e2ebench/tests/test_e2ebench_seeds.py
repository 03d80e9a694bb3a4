"""The seed changes the generated inputs but not the pinned simulated digests."""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

from batch_infer import make_sets  # noqa: E402
from design_sweep import make_grids, records_of  # noqa: E402
from serve_open import make_images  # noqa: E402

with open(os.path.join(HERE, "config.json"), "r", encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)


def test_seed_changes_request_images_and_image_sets():
    assert make_images(1, 8).shape == (8, 784)
    np.testing.assert_array_equal(make_images(1, 8), make_images(1, 8))
    assert not np.array_equal(make_images(1, 8), make_images(2, 8))
    first, second = make_sets(1, 2, 4), make_sets(2, 2, 4)
    assert first[0].shape == (4, 3, 32, 32)
    assert not np.array_equal(first[0], second[0])


def test_seed_orders_networks_but_keeps_pinned_digests():
    from repro.core.schedule import clear_schedule_cache
    from repro.eval.sweep import clear_sweep_caches

    cfg = CONFIG["design-sweep"]
    pins = cfg["pinned_digests"]
    orders = set()
    try:
        for seed in (1, 2):
            grids = make_grids(seed, cfg)
            orders.add(grids["analytic"].networks)
            for name in ("analytic", "extended"):
                assert records_of(grids[name]) == pins[name], (seed, name)
    finally:
        # leave the process-wide caches as empty as this test found them
        clear_sweep_caches()
        clear_schedule_cache()
    assert len(orders) == 2
