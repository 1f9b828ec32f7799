"""Two-stage modular training next to the end-to-end baseline.

Stage one never sees full labels: the proxy consumes only pairwise
same-or-different information.  Stage two trains the linear output module
on the frozen features.  The end-to-end run trains the same backbone
jointly for comparison.
"""

from modkernel.datasets import DatasetSpec, make_dataset
from modkernel.training import (ArchitectureSpec, TrainConfig, TwoModuleModel,
                                freeze_and_train_output, train_end_to_end,
                                train_input_module)

data = make_dataset(DatasetSpec(kind="gaussian-blobs", n=480, d=8,
                                num_classes=4, seed=13, split_fraction=0.625))
arch = ArchitectureSpec(input_dim=8, hidden_widths=(24,), latent_dim=3,
                        num_classes=4)
cfg = TrainConfig(batch_size=64, lr_schedule=((0.05, 40), (0.01, 20)),
                  momentum=0.9, seed=5, proxy="nmse-neo", loss="xe",
                  trace_every=20)

modular = TwoModuleModel(arch, seed=5)
print("stage 1: maximizing", cfg.proxy, "with pairwise supervision only")
trace1, _ = train_input_module(modular, data, cfg)
for row in trace1.rows:
    print(f"  epoch {row['epoch']:>3}: proxy {row['objective']:+.4f}")

print("stage 2: output module on the frozen features")
trace2 = freeze_and_train_output(modular, data, cfg)
print(f"  train acc {trace2.final('train_accuracy'):.3f}, "
      f"test acc {trace2.final('test_accuracy'):.3f}")

baseline = TwoModuleModel(arch, seed=5)
trace3 = train_end_to_end(baseline, data, cfg)
print(f"end-to-end baseline: train acc {trace3.final('train_accuracy'):.3f}, "
      f"test acc {trace3.final('test_accuracy'):.3f}")
