#!/usr/bin/env python3
"""Quantization-step calibration for fixed-step spectral codes.

The spectral channel can be quantized with a step that is fixed in
absolute terms or tied to the embedding's own scale. Fixed steps need
calibration: raw eigenvector energies live at scale 1/n, so useful steps
sit orders of magnitude below the scale-aware defaults. This script
quantizes unscaled m=5 embeddings with a fixed rounding step eta (the
step is realized exactly through the ratio rule with ratio eta / max
entry), sweeps eta from collision-heavy to injective, and prints the mean
error, mean preimage size, and occupied-code ratio, averaged over cubic
graphs at n in {500, 1000, 2000}. A scale-tied comparison column shows
the ratio rule at the same nominal eta staying near-injective
throughout.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from obsmap.graphs import anchor_profile, random_regular
from obsmap.harness import anchor_seed_for, graph_seed_for, select_anchors
from obsmap.observation import anchor_stage, fiber_stats, refine_observation
from obsmap.spectral import (
    codebook_size,
    energy_embedding,
    low_frequency_basis,
    normalized_laplacian,
    quantize_relative,
)

ETAS = ("5e-3", "2e-3", "1e-3", "5e-4", "2e-4", "1e-4", "5e-5", "2e-5")
N_LIST = (500, 1000, 2000)
K, M = 4, 5


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=20, help="graphs per size")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cells = []
    for n in N_LIST:
        for trial in range(args.trials):
            gseed = graph_seed_for(args.seed, n, 3, trial)
            g = random_regular(n, 3, gseed)
            emb = energy_embedding(
                low_frequency_basis(normalized_laplacian(g), M), M, scaled=False)
            anchors = select_anchors(
                g, K, "random", anchor_seed_for(gseed, K, "random", 0))
            # One anchor stage per cell, refined by both quantizers at every eta.
            stage = anchor_stage(anchor_profile(g, anchors))
            cells.append((g, stage, emb, float(np.max(np.abs(emb.values)))))
        print(f"prepared n={n}", file=sys.stderr)

    print(f"{'eta':>6} {'error':>9} {'preimage':>9} {'code_ratio':>10} {'ratio_rule_err':>14}")
    for eta_text in ETAS:
        eta = float(eta_text)
        errors, preimages, ratios, rel_errors = [], [], [], []
        for g, stage, emb, peak in cells:
            fixed = quantize_relative(emb, eta / peak)
            stats = fiber_stats(refine_observation(stage, fixed))
            errors.append(stats.error)
            preimages.append(g.n / stats.image_size)
            ratios.append(codebook_size(fixed) / g.n)
            tied = quantize_relative(emb, eta)
            rel_errors.append(fiber_stats(refine_observation(stage, tied)).error)
        print(
            f"{eta_text:>6} {np.mean(errors):>9.6f} {np.mean(preimages):>9.4f} "
            f"{np.mean(ratios):>10.4f} {np.mean(rel_errors):>14.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
