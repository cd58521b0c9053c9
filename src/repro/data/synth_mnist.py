"""Synthetic MNIST: procedurally rasterized handwritten-style digits.

The real MNIST files cannot be downloaded in this environment, so we build a
drop-in substitute that preserves what the paper's MNIST experiments
exercise: a 10-class, 28x28 grayscale task that a 90k-parameter MLP learns
to a few percent error, with enough intra-class variation that cutting the
weight budget 60-180x visibly costs accuracy (Table 1's trend).

Each digit class is defined by a stroke skeleton (a set of polyline/arc
control points in a unit box).  A sample applies a random affine deformation
(rotation, scale, shear, translation) and per-point jitter to the skeleton,
rasterizes it with an anti-aliased distance-to-segment pen of random
thickness, then adds mild pixel noise — mimicking handwriting variation.

Generation is deterministic given ``seed`` and runs in two passes:

* a draw pass, one Python iteration per sample, makes every RNG draw
  (angle, scale, shear, shift, per-point wobble, pen) and applies the
  sample's 2x2 affine.  The draws stay per sample because the RNG stream
  order is part of the golden dataset digests (``tests/test_determinism.py``);
* a distance pass computes pixel-to-segment distances for samples of one
  class together (so the segment count is equal), in fixed-size chunks,
  vectorized over samples, pixels and segments.  Its element-wise arithmetic
  is the same per pixel whatever the chunking, so images are bit-identical
  to a one-sample-at-a-time render.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["digit_strokes", "render_digits", "synth_mnist"]

#: Samples per distance-pass chunk.  Each float64 ``(B, H, W, S)`` temporary
#: is then about 0.5 MB at 28x28 (4 x 784 pixels x up to 22 segments).
_CHUNK = 4


def _arc(
    cx: float, cy: float, r: float, a0: float, a1: float, n: int = 8
) -> list[tuple[float, float]]:
    """Polyline approximation of a circular arc (angles in degrees)."""
    ts = np.linspace(math.radians(a0), math.radians(a1), n)
    return [(cx + r * math.cos(t), cy + r * math.sin(t)) for t in ts]


def digit_strokes() -> dict[int, list[list[tuple[float, float]]]]:
    """Stroke skeletons for digits 0-9 in a unit box (x right, y up).

    Each digit is a list of polylines; consecutive points form pen segments.
    """
    return {
        0: [_arc(0.5, 0.5, 0.32, 90, 450, 16)],
        1: [[(0.35, 0.62), (0.5, 0.8), (0.5, 0.2)], [(0.35, 0.2), (0.65, 0.2)]],
        2: [_arc(0.5, 0.62, 0.22, 180, 0, 8) + [(0.3, 0.2)], [(0.3, 0.2), (0.72, 0.2)]],
        3: [_arc(0.48, 0.64, 0.18, 150, -60, 8), _arc(0.48, 0.34, 0.2, 120, -90, 8)],
        4: [[(0.62, 0.2), (0.62, 0.8)], [(0.62, 0.8), (0.3, 0.4)], [(0.3, 0.4), (0.75, 0.4)]],
        5: [[(0.7, 0.8), (0.35, 0.8)], [(0.35, 0.8), (0.33, 0.52)],
            _arc(0.5, 0.36, 0.2, 120, -120, 10)],
        6: [[(0.62, 0.8), (0.4, 0.5)], _arc(0.5, 0.35, 0.18, 90, 450, 12)],
        7: [[(0.3, 0.8), (0.72, 0.8)], [(0.72, 0.8), (0.45, 0.2)]],
        8: [_arc(0.5, 0.62, 0.16, 90, 450, 12), _arc(0.5, 0.3, 0.2, 90, 450, 12)],
        9: [_arc(0.5, 0.62, 0.18, 90, 450, 12), [(0.66, 0.62), (0.58, 0.2)]],
    }


def _segments_for(strokes: list[list[tuple[float, float]]]) -> np.ndarray:
    """Stack stroke polylines into an (S, 4) array of segments (x0,y0,x1,y1)."""
    segs = []
    for line in strokes:
        pts = np.asarray(line, dtype=np.float64)
        segs.append(np.concatenate([pts[:-1], pts[1:]], axis=1))
    return np.concatenate(segs, axis=0)


def _nearest_sq_dist(seg: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Squared distance from every pixel center to its nearest segment.

    ``seg`` is a ``(B, S, 4)`` chunk of deformed segments and ``coords`` the
    pixel-center offsets ``(i + 0.5) / size``; returns ``(B, H, W)``.  Per
    pixel and segment this is ``t = clip((p - a)·ab / (|ab|² + 1e-12), 0, 1)``
    then ``|p - (a + t·ab)|²``, one element-wise operation at a time in that
    order (in place, to keep two ``(B, H, W, S)`` buffers), so the result
    does not depend on how samples are chunked.
    """
    px = coords[None, None, :, None]          # grid columns, x right
    py = (1.0 - coords)[None, :, None, None]  # grid rows, y up
    ax, ay, bx, by = (np.ascontiguousarray(seg[:, :, k]) for k in range(4))
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby + 1e-12
    ax, ay, abx, aby, denom = (v[:, None, None, :] for v in (ax, ay, abx, aby, denom))
    # (p - a)·ab: the x half is computed per grid column, the y half per row.
    t = (px - ax) * abx + (py - ay) * aby      # (B, H, W, S)
    t /= denom
    np.clip(t, 0.0, 1.0, out=t)
    ex = t * abx
    ex += ax
    np.subtract(px, ex, out=ex)
    ex *= ex
    t *= aby
    t += ay
    np.subtract(py, t, out=t)
    t *= t
    ex += t
    return ex.min(axis=-1)


def render_digits(
    labels: np.ndarray,
    rng: np.random.Generator,
    size: int = 28,
    noise: float = 0.08,
) -> np.ndarray:
    """Render one image per label with random handwriting-style deformation.

    Returns a float32 array of shape ``(N, 1, size, size)`` in [0, 1].
    Raises ``ValueError`` for a label outside 0-9 or a negative ``noise``.
    """
    if noise < 0:
        raise ValueError(f"noise must be non-negative, got {noise}")
    segments = {d: _segments_for(s) for d, s in digit_strokes().items()}
    labels = np.asarray(labels).astype(np.int64)
    bad = np.unique(labels[(labels < 0) | (labels > 9)])
    if bad.size:
        raise ValueError(f"digit labels must be in 0-9, got {bad.tolist()}")

    # Draw pass: every RNG draw, in the per-sample order the golden digests pin.
    n = len(labels)
    drawn = []
    pens = np.empty(n, dtype=np.float64)
    center = np.array([0.5, 0.5], dtype=np.float64)
    for i, lab in enumerate(labels.tolist()):
        pts = segments[lab].reshape(-1, 2)
        # Random affine about the glyph center.  Geometry stays float64 on
        # purpose (sub-pixel rasterization); the rendered image is handed
        # to the model boundary as float32 below.
        angle = rng.normal(0.0, 0.12)
        scale = rng.uniform(0.85, 1.12)
        shear = rng.normal(0.0, 0.12)
        ca, sa = math.cos(angle), math.sin(angle)
        affine = np.array([[ca, -sa + shear], [sa, ca]], dtype=np.float64) * scale
        shift = rng.normal(0.0, 0.035, size=2)
        pts = (pts - center) @ affine.T + center + shift
        # Small per-point wobble for stroke irregularity.
        pts = pts + rng.normal(0.0, 0.008, size=pts.shape)
        drawn.append(pts.reshape(-1, 4))
        pens[i] = rng.uniform(0.028, 0.05)

    # Distance pass: one class at a time (equal segment count S), in chunks.
    coords = (np.arange(size) + 0.5) / size
    out = np.zeros((n, size * size), dtype=np.float32)
    for digit in segments:
        members = np.flatnonzero(labels == digit)
        for lo in range(0, len(members), _CHUNK):
            idx = members[lo : lo + _CHUNK]
            d = np.sqrt(_nearest_sq_dist(np.stack([drawn[i] for i in idx]), coords))
            img = np.clip(1.0 - d / pens[idx, None, None], 0.0, 1.0)  # anti-aliased stroke
            out[idx] = img.reshape(len(idx), -1).astype(np.float32)

    if noise > 0:
        out += rng.normal(0.0, noise, size=out.shape).astype(np.float32)
        np.clip(out, 0.0, 1.0, out=out)
    return out.reshape(n, 1, size, size)


def synth_mnist(
    n_train: int = 8000,
    n_test: int = 2000,
    seed: int = 0,
    size: int = 28,
    noise: float = 0.08,
) -> tuple[Dataset, Dataset]:
    """Generate a deterministic synthetic-MNIST train/test pair.

    Labels are balanced round-robin so every class appears equally often.
    """
    if n_train <= 0 or n_test <= 0:
        raise ValueError("dataset sizes must be positive")
    rng = np.random.default_rng(seed)
    y_train = np.arange(n_train) % 10
    y_test = np.arange(n_test) % 10
    # Shuffle label order (rendering consumes rng per-sample, so the split
    # between train and test stays deterministic).
    rng.shuffle(y_train)
    rng.shuffle(y_test)
    x_train = render_digits(y_train, rng, size=size, noise=noise)
    x_test = render_digits(y_test, rng, size=size, noise=noise)
    # Model boundary: rasterization may use float64 internally, but what
    # leaves this module must be float32 (the plane/tensor dtype).
    assert x_train.dtype == np.float32 and x_test.dtype == np.float32
    return (
        Dataset(x_train, y_train, name="synth-mnist-train"),
        Dataset(x_test, y_test, name="synth-mnist-test"),
    )
