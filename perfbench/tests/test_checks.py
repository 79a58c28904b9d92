"""Every output check passes on a good pass and fails on a corrupted one."""

import pytest

from workloads import PassOutput, WORKLOADS, failed_cells, grid_mean_silhouette

ALGOS = ["K-Means", "Mini batch K-means", "Spectral clustering",
         "Agglomerative Ward clustering", "Agglomerative average clustering",
         "Birch clustering", "Gaussian mixture (Tied)", "Gaussian mixture (Diag)",
         "Gaussian mixture (Full)"]


def report(algos, scores):
    lines = ["algorithm,k,silhouette,runtime_ms,converged"]
    for algo in algos:
        for k in range(2, 7):
            s = scores(algo, k)
            lines.append(f"{algo},{k},{'' if s is None else f'{s:.4f}'},,true")
    return ("\n".join(lines) + "\n").encode()


def blobs_score(algo, k):
    return 0.95 if k == 2 else 0.80 - 0.05 * k


def archive_score(algo, k):
    return 0.60 if k == 4 else 0.40


def sweep_pass(data, code=0):
    return PassOutput(exit_codes=[code], stdout=[""], files={"report.csv": data})


def labels(flip_every=0):
    lines = ["id,cluster"]
    for cls in (0, 1):
        for j in range(128):
            flip = flip_every and j % flip_every == 0
            lines.append(f"img{cls}_{j:03d},{1 - cls if flip else cls}")
    return ("\n".join(lines) + "\n").encode()


def image_pass(labels_csv=None, features=b"id,f0\na,1.0\n", codes=(0, 0, 0, 0)):
    return PassOutput(
        exit_codes=list(codes),
        stdout=["", "", "", "metric,value\nmean_silhouette,0.8800\n"],
        files={"labels.csv": labels() if labels_csv is None else labels_csv,
               "features.csv": features},
    )


def failures(workload, passes):
    return [name for name, ok in WORKLOADS[workload].check(passes) if not ok]


def test_good_passes_pass_every_check():
    good = report(ALGOS, blobs_score)
    assert failures("blobs-sweep", [sweep_pass(good), sweep_pass(good)]) == []
    archive = report(ALGOS[:1] + ALGOS[1:2] + ALGOS[5:], archive_score)
    assert failures("archive-sweep", [sweep_pass(archive)]) == []
    assert failures("image-embed", [image_pass(), image_pass()]) == []


@pytest.mark.parametrize("corrupt, failed", [
    (lambda a, k: None if (a, k) == ("Birch clustering", 5) else blobs_score(a, k),
     "pass0.45_rows_no_blank"),
    (lambda a, k: 0.85 if (a, k) == ("Spectral clustering", 2) else blobs_score(a, k),
     "pass0.k2_silhouettes_ge_0.90"),
    (lambda a, k: 0.97 if (a, k) == ("K-Means", 3) else blobs_score(a, k),
     "pass0.kmeans_k2_beats_k3_to_k6"),
])
def test_blobs_checks_fail_on_corrupted_report(corrupt, failed):
    assert failed in failures("blobs-sweep", [sweep_pass(report(ALGOS, corrupt))])


def test_blobs_checks_fail_on_missing_row_exit_code_and_drift():
    good = report(ALGOS, blobs_score)
    short = good.rsplit(b"\n", 2)[0] + b"\n"
    assert "pass0.45_rows_no_blank" in failures("blobs-sweep", [sweep_pass(short)])
    assert "pass0.exit_codes" in failures("blobs-sweep", [sweep_pass(good, code=3)])
    drifted = good.replace(b"0.9500", b"0.9501", 1)
    assert failures("blobs-sweep", [sweep_pass(good), sweep_pass(drifted)]) == [
        "report_identical_across_passes"]


def test_blank_cells_count_as_failed_operations():
    blanked = report(ALGOS, lambda a, k: None if k == 6 else blobs_score(a, k))
    assert failed_cells(WORKLOADS["blobs-sweep"], sweep_pass(blanked)) == 9
    assert failed_cells(WORKLOADS["blobs-sweep"], sweep_pass(b"garbage")) == 45


def test_archive_checks_fail_on_corrupted_report():
    algos = ALGOS[:2] + ALGOS[5:]
    best_at_3 = report(algos, lambda a, k: 0.7 if (a, k) == ("Birch clustering", 3)
                       else archive_score(a, k))
    assert failures("archive-sweep", [sweep_pass(best_at_3)]) == ["pass0.best_silhouette_at_k4"]
    blank = report(algos, lambda a, k: None if k == 2 else archive_score(a, k))
    assert failures("archive-sweep", [sweep_pass(blank)]) == ["pass0.30_rows_no_blank"]
    nine_algos = report(ALGOS, archive_score)
    assert failures("archive-sweep", [sweep_pass(nine_algos)]) == ["pass0.30_rows_no_blank"]


def test_image_checks_fail_on_corrupted_outputs():
    assert failures("image-embed", [image_pass(labels(flip_every=10))]) == [
        "pass0.labels_agree_with_classes_ge_0.95"]
    assert failures("image-embed", [image_pass(b"id,cluster\n")]) == [
        "pass0.labels_agree_with_classes_ge_0.95"]
    assert failures("image-embed", [image_pass(codes=(0, 2, 0, 0))]) == ["pass0.exit_codes"]
    assert failures("image-embed", [image_pass(), image_pass(features=b"id,f0\na,1.5\n")]) == [
        "features_identical_across_passes"]


def test_silhouette_readers():
    assert WORKLOADS["image-embed"].silhouette(image_pass()) == 0.88
    archive = report(ALGOS[:2] + ALGOS[5:], archive_score)
    assert WORKLOADS["archive-sweep"].silhouette(sweep_pass(archive)) == pytest.approx(
        (0.6 + 0.4 * 4) / 5)
    assert grid_mean_silhouette(sweep_pass(archive)) == pytest.approx((0.6 * 6 + 0.4 * 24) / 30)
