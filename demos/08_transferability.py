"""Training-free module reusability scoring.

Six binary source tasks with overlapping class structure each pretrain an
input module.  For a target task, each frozen module is scored by a proxy
objective on a 10% subsample (no training), then compared against the
retraining oracle, which fits one fresh output module per candidate, all
in one stack.  The proxy ranking matches the oracle's at a tiny fraction
of the cost.
"""

import time

from modkernel.datasets import DatasetSpec, make_dataset
from modkernel.experiments import binary_subtask
from modkernel.training import (ArchitectureSpec, TrainConfig, TwoModuleModel,
                                train_input_module)
from modkernel.transfer import (CandidateModule, attach_oracle,
                                rank_candidates, retrain_oracle,
                                score_candidate)

base = make_dataset(DatasetSpec(kind="gaussian-blobs", n=2400, d=12,
                                num_classes=6, seed=17, split_fraction=2 / 3,
                                noise=4.0))
arch = ArchitectureSpec(input_dim=12, hidden_widths=(24,), latent_dim=2,
                        num_classes=2)
cand_cfg = TrainConfig(batch_size=64, lr_schedule=((0.01, 60), (0.003, 30)),
                       momentum=0.9, seed=5, proxy="nmse-neo", loss="xe",
                       trace_every=50)
oracle_cfg = TrainConfig(batch_size=64, lr_schedule=((0.1, 150), (0.01, 50)),
                         momentum=0.9, seed=5, proxy="al", loss="xe",
                         trace_every=50, plateau_patience=15)

sources = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (4, 5)]
print("pretraining source modules:", sources)
candidates = []
for i, pair in enumerate(sources):
    model = TwoModuleModel(arch, seed=5 + i)
    train_input_module(model, binary_subtask(base, pair), cand_cfg)
    candidates.append(CandidateModule(id=f"src-{pair[0]}-{pair[1]}",
                                      model=model, source_task=str(pair)))

target = binary_subtask(base, (0, 1))
t0 = time.perf_counter()
scores = {c.id: score_candidate(c, target, "al", 0.1, seed=23)
          for c in candidates}
scoring_s = time.perf_counter() - t0
t0 = time.perf_counter()
oracle = retrain_oracle(candidates, target, oracle_cfg)
oracle_s = time.perf_counter() - t0

report = attach_oracle(rank_candidates(scores), oracle)
print(f"\n{'module':>10s} {'proxy score':>12s} {'rank':>5s} "
      f"{'oracle acc':>11s} {'rank':>5s}")
for e in report.entries:
    print(f"{e['id']:>10s} {e['score']:>+12.4f} {e['rank']:>5d} "
          f"{e['oracle_accuracy']:>11.4f} {e['oracle_rank']:>5d}")
print(f"\nSpearman rank agreement: {report.rank_correlation_value:.3f}")
print(f"scoring took {scoring_s * 1000:.0f} ms vs oracle {oracle_s:.1f} s "
      f"({scoring_s / oracle_s * 100:.1f}% of the cost)")
