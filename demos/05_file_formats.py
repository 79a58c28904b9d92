"""Round-tripping every on-disk format the toolkit defines.

PGM images, CNN weight files, feature CSVs, and label CSVs all reproduce
their inputs exactly; this script demonstrates each round trip and what the
errors look like when a stream is malformed. The CSV formats are UTF-8, and
a field is quoted only when it holds a comma, a double quote or a line break.
"""

import numpy as np

from radclust import FeatureMatrix, RngStream
from radclust.cnn import CnnSpec, init_weights, load_weights, save_weights
from radclust.errors import ParseError
from radclust.imaging import ImageGray, load_pgm, save_pgm
from radclust.pipeline import read_features, read_labels, write_features, write_labels

# PGM: canonical header plus raw payload; load(save(img)) is bit-exact.
pixels = RngStream(3).u64s(64).astype(np.uint8).reshape(8, 8)
img = ImageGray(width=8, height=8, pixels=pixels)
data = save_pgm(img)
assert np.array_equal(load_pgm(data).pixels, img.pixels)
print(f"PGM round trip: {len(data)} bytes, header {data[:12]!r}")

# Weight file: magic OCNN + shape table + float32 payload + CRC32.
weights = init_weights(CnnSpec(), seed=7)
blob = save_weights(weights)
back = load_weights(blob)
assert all(
    (a.tobytes(), b.tobytes()) == (c.tobytes(), d.tobytes())
    for (a, b), (c, d) in zip(weights.layers, back.layers)
)
print(f"weight file round trip: {len(blob):,} bytes, provenance {back.provenance!r}")

# Feature CSV: shortest-repr decimals reproduce the doubles exactly.
fm = FeatureMatrix(rows=RngStream(9).gaussians(8).reshape(2, 4), ids=["a", "b"])
csv_bytes = write_features(fm)
assert np.array_equal(read_features(csv_bytes).rows, fm.rows)
print("feature CSV round trip is exact; first line:",
      csv_bytes.decode().splitlines()[1])

# Labels CSV; an id holding a comma or a quote is quoted, so it reads back whole.
quoted = write_labels(["a", 'left, "hip"'], [1, 0])
ids, labels = read_labels(quoted)
assert ids == ["a", 'left, "hip"'] and labels.tolist() == [1, 0]
print("labels CSV round trip ok; quoted row:", quoted.decode().splitlines()[2])

# Malformed inputs fail with positioned errors.
for name, attempt in [
    ("bad weight magic", lambda: load_weights(b"XXXX" + blob[4:])),
    ("truncated PGM", lambda: load_pgm(b"P5 4 4 255 " + bytes(10))),
    ("ragged feature CSV", lambda: read_features("id,f0,f1\na,1.0,2.0\nb,3.0\n")),
    ("Latin-1 labels CSV", lambda: read_labels("id,cluster\ncafé,0\n".encode("latin-1"))),
]:
    try:
        attempt()
    except ParseError as exc:
        where = f"byte {exc.offset}" if exc.offset is not None else f"line {exc.line}"
        print(f"{name}: ParseError at {where}: {exc}")
