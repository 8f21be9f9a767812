"""Run a reproducible hyperparameter grid from a config file.

Builds a complete workspace on disk (interactions TSV, four MMF1 modality
files, a config with two grid axes), runs every combination against one
frozen split, and reads the summary back.
"""

from pathlib import Path

import numpy as np

from mmrec import parse_config, run_experiment, write_matrix

root = Path("demo_output/grid")
root.mkdir(parents=True, exist_ok=True)
rng = np.random.default_rng(0)

# ------------------------------------------------------------ raw artifacts
n_users, n_items = 40, 24
lines = ["userID\titemID"]
for u in range(n_users):
    for i in rng.choice(n_items, size=8, replace=False):
        lines.append(f"u{u:02d}\ti{i:02d}")
(root / "interactions.tsv").write_text("\n".join(lines) + "\n")

for modality in ("text", "image", "audio", "video"):
    write_matrix(root / f"{modality}.mmf", rng.normal(size=(n_items, 4)).astype(np.float32))
    (root / f"{modality}_ids.txt").write_text("".join(f"i{i:02d}\n" for i in range(n_items)))

# A list on a tunable key declares a grid axis; here the grid is the
# 2 x 3 product of learning rates and fusion methods.
(root / "config.txt").write_text("""\
# grid demo
interactions: interactions.tsv
k: 2
seed: 99
model: vbpr_mm
d: 8
d_p: 4
max_epochs: 5
batch_size: 64
learning_rate: [0.1, 0.02]
fusion: [concat, sum, mean]
topk: [5, 10]
stop_metric: recall@10
features.text: text.mmf,text_ids.txt
features.image: image.mmf,image_ids.txt
features.audio: audio.mmf,audio_ids.txt
features.video: video.mmf,video_ids.txt
""")

# ------------------------------------------------------------------ run it
config = parse_config(root / "config.txt")
summary = run_experiment(config, out_dir=root / "out")

print(f"ran {len(summary.results)} combinations; best row {summary.best_index}")
for idx, result in enumerate(summary.results):
    marker = "*" if idx == summary.best_index else " "
    print(f" {marker} {result.combo}  valid recall@10 "
          f"{result.valid_report.get('recall', 10):.4f}  "
          f"test recall@10 {result.test_report.get('recall', 10):.4f}")

print(f"\nsummary file: {root / 'out' / 'summary.tsv'}")
print("first lines:")
for line in (root / "out" / "summary.tsv").read_text().splitlines()[:3]:
    print("  " + line[:120])
print("\nrerunning this script reproduces the summary byte-for-byte",
      "(timings.tsv is the only file allowed to differ)")
