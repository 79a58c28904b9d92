"""The whole image path: PGM files -> preprocess -> CNN features -> sweep.

Builds a small synthetic "scan" collection (a smooth-dark population and a
speckled-bright one), writes real PGM files plus a manifest, then runs the
same stages the CLI exposes: load, crop/resize/normalize, seeded CNN
feature extraction, and a clustering sweep over the embeddings.
"""

from pathlib import Path

import numpy as np

from radclust import FeatureMatrix
from radclust.cnn import CnnSpec, forward, init_weights
from radclust.imaging import load_pgm, normalize, resize, save_pgm
from radclust.pipeline import (
    ManifestEntry,
    SweepConfig,
    read_manifest,
    render_report_csv,
    sweep,
    synth_textured_images,
    write_manifest,
)

base = Path(__file__).parent / "output" / "images"
base.mkdir(parents=True, exist_ok=True)

# Write 12 PGM files and a manifest describing them.
images, ids, truth = synth_textured_images(n_per_class=6, size=128, seed=21)
entries = []
for img, img_id in zip(images, ids):
    (base / f"{img_id}.pgm").write_bytes(save_pgm(img))
    entries.append(ManifestEntry(path=f"{img_id}.pgm"))
(base / "manifest.csv").write_bytes(write_manifest(entries))
print(f"wrote {len(entries)} PGM files under {base}")

# Preprocess: load each file, resize to the network's 128x128 input, and
# normalize intensities into [0, 1].
tensors = []
for entry in read_manifest((base / "manifest.csv").read_bytes()):
    img = load_pgm((base / entry.path).read_bytes())
    tensors.append(normalize(resize(img, 128, 128)))

# Extract 16-D embeddings with seeded He-normal weights. The network is a
# fixed random projection here; externally trained weights would load from
# a weight file instead.
weights = init_weights(CnnSpec(), seed=4)
vectors = [forward(t, weights).values for t in tensors]
fm = FeatureMatrix(rows=np.array(vectors), ids=ids)
print(f"extracted features: n={fm.n}, d={fm.d}")

# Sweep a few algorithms over k = 2..4 and show the silhouette grid.
report = sweep(fm, SweepConfig(
    algorithms=["kmeans", "agglomerative-ward", "birch", "gmm-diag"],
    ks=[2, 3, 4],
    seed=4,
))
for row in report.rows:
    score = "-" if row.silhouette is None else f"{row.silhouette:.4f}"
    print(f"  {row.algorithm:34s} k={row.k}  silhouette={score}")

out = Path(__file__).parent / "output" / "image_report.csv"
out.write_bytes(render_report_csv(report))
print(f"wrote {out}")

# The two texture populations are linearly separable even under random
# projections, so the k=2 rows should dominate the grid.
