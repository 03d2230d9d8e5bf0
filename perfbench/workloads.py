"""Seeded inputs and the method mix of each workload.

Every array here comes from numpy's PCG64 generator seeded with
``(seed, stream)``, so one seed always gives the same gallery and the same
query sequence.  The generator is the benchmark's own: nothing is drawn
through ``mrarc.data``, so a change to the library cannot change a workload.

A class is a random ``subspace_dim``-dimensional subspace per modality.  An
atom of class k is ``B_k^v a`` for a latent vector ``a`` shared by all
modalities, scaled to unit norm, plus dense sensor noise.  A query is built
the same way from a fresh latent vector, then corrupted by its noise kind.
"""

import math
from dataclasses import dataclass

import numpy as np

GALLERY_STREAM = 0
QUERY_STREAM = 1
WARMUP_STREAM = 2

SENSOR_NOISE = 0.05  # l2 norm of the dense noise on every unit-norm signal
OCCLUSION_AREA = 0.2  # share of the image covered by the square occluder
OCCLUSION_RANGE = (0.0, 0.5)
IMPULSE_SHARE = 0.3  # share of pixels replaced by impulse values
IMPULSE_RANGE = (-0.5, 0.5)
GAUSSIAN_NOISE = 0.3  # l2 norm of the extra dense noise of "gaussian" queries

CLEAN = "clean"
OCCLUSION = "occlusion"
IMPULSE = "impulse"
GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class MethodPlan:
    """One method's settings, its share of a round, and its accuracy floor.

    ``per_round`` queries of the method are sent for each noise kind in every
    round.  ``clean_floor`` is the lowest accuracy on clean queries that a
    run accepts.
    """

    method: str
    per_round: int
    clean_floor: float
    lam: float = 1e-3
    mu: float = 0.1
    epsilon: float = 1e-4
    max_iter: int = 300
    min_sigma: float | None = None  # floor of the adaptive bandwidth (modal methods)


@dataclass(frozen=True)
class Workload:
    name: str
    n_classes: int
    subspace_dim: int
    per_class: int
    views: tuple  # (height, width) of each modality's image
    noises: tuple
    plans: tuple

    @property
    def multimodal(self):
        return len(self.views) > 1


@dataclass(frozen=True)
class Query:
    plan: MethodPlan
    noise: str
    label: int
    ys: tuple  # one vector per modality


def _modal(method, per_round, floor):
    return MethodPlan(method, per_round, floor, epsilon=1e-4, max_iter=300, min_sigma=1e-2)


def _squared(method, per_round, floor):
    return MethodPlan(method, per_round, floor, epsilon=1e-5, max_iter=3000)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "modal-wide", n_classes=20, subspace_dim=4, per_class=8,
            views=((8, 8),), noises=(CLEAN, OCCLUSION, IMPULSE),
            plans=(
                _modal("MRSRC", 1, 0.8),
                _modal("MRBSRC", 1, 0.8),
                _modal("MRCRC", 1, 0.8),
            ),
        ),
        Workload(
            "squared-mix", n_classes=20, subspace_dim=4, per_class=8,
            views=((8, 8),), noises=(CLEAN, GAUSSIAN),
            plans=(
                _squared("SRC", 1, 0.8),
                _squared("BSRC", 1, 0.8),
                _squared("CRC", 56, 0.8),
                _squared("LRC", 40, 0.8),
            ),
        ),
        Workload(
            "multiview-tall", n_classes=10, subspace_dim=3, per_class=4,
            views=((8, 8), (6, 8)), noises=(CLEAN, IMPULSE, GAUSSIAN),
            plans=(
                _modal("MRJSRC", 2, 0.8),
                _squared("JSRC", 1, 0.8),
            ),
        ),
    )
}


def unit_columns(S):
    """Columns of S scaled to unit l2 norm."""
    return S / np.linalg.norm(S, axis=0)


class Generator:
    """Class subspaces of one workload and seed, plus the query stream."""

    def __init__(self, workload, seed):
        self.workload = workload
        rng = np.random.default_rng([seed, GALLERY_STREAM])
        w = workload
        self.bases = [
            [np.linalg.qr(rng.standard_normal((h * wd, w.subspace_dim)))[0]
             for (h, wd) in w.views]
            for _ in range(w.n_classes)
        ]
        self.labels = np.repeat(np.arange(w.n_classes), w.per_class)
        latent = [rng.standard_normal((w.subspace_dim, w.per_class))
                  for _ in range(w.n_classes)]
        self.gallery = []
        for v, (h, wd) in enumerate(w.views):
            clean = np.concatenate(
                [self.bases[k][v] @ latent[k] for k in range(w.n_classes)], axis=1
            )
            S = unit_columns(clean)
            S = S + rng.standard_normal(S.shape) * (SENSOR_NOISE / math.sqrt(h * wd))
            self.gallery.append(S)
        self._seed = seed

    def rounds(self, stream):
        """Endless sequence of rounds; each round is a list of queries.

        A round sends, for every noise kind, ``per_round`` queries to each
        method, interleaved so that consecutive queries change method.
        """
        rng = np.random.default_rng([self._seed, stream])
        w = self.workload
        depth = max(p.per_round for p in w.plans)
        while True:
            out = []
            for j in range(depth):
                for noise in w.noises:
                    for plan in w.plans:
                        if j < plan.per_round:
                            out.append(self._query(rng, plan, noise))
            yield out

    def _query(self, rng, plan, noise):
        w = self.workload
        k = int(rng.integers(w.n_classes))
        a = rng.standard_normal(w.subspace_dim)
        ys = []
        for v, (h, wd) in enumerate(w.views):
            m = h * wd
            y = self.bases[k][v] @ a
            y = y / np.linalg.norm(y)
            y = y + rng.standard_normal(m) * (SENSOR_NOISE / math.sqrt(m))
            if noise == GAUSSIAN:
                y = y + rng.standard_normal(m) * (GAUSSIAN_NOISE / math.sqrt(m))
            elif v == 0 and noise == IMPULSE:
                count = int(round(IMPULSE_SHARE * m))
                idx = rng.choice(m, size=count, replace=False)
                y[idx] = rng.uniform(*IMPULSE_RANGE, size=count)
            elif v == 0 and noise == OCCLUSION:
                side = int(round(math.sqrt(OCCLUSION_AREA * m)))
                r0 = int(rng.integers(h - side + 1))
                c0 = int(rng.integers(wd - side + 1))
                img = y.reshape(h, wd)
                img[r0:r0 + side, c0:c0 + side] = rng.uniform(
                    *OCCLUSION_RANGE, size=(side, side)
                )
            ys.append(y)
        return Query(plan, noise, k, tuple(ys))


def write_csv(samples, labels, path):
    """One sample per row, ``%.17g`` values, the class label last."""
    with open(path, "w") as fh:
        for j in range(samples.shape[1]):
            fields = [format(x, ".17g") for x in samples[:, j]]
            fields.append(str(int(labels[j])))
            fh.write(",".join(fields) + "\n")
