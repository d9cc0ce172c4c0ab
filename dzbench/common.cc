#include "phases.h"

#include "src/train/finetune.h"

namespace dzbench {

void PhaseResult::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(what);
  }
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finaliser over the pair.
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

dz::Example TaskMix::Sample(dz::Rng& rng) const {
  return tasks_[static_cast<size_t>(rng.Categorical(weights_))]->Sample(rng);
}

std::vector<int> TaskMix::label_tokens() const {
  std::vector<int> all;
  for (const dz::Task* t : tasks_) {
    for (int l : t->label_tokens()) {
      all.push_back(l);
    }
  }
  return all;
}

std::vector<std::unique_ptr<dz::Task>> MakeTasks(const dz::ModelConfig& config,
                                                 uint64_t seed) {
  std::vector<std::unique_ptr<dz::Task>> tasks;
  for (dz::TaskKind kind :
       {dz::TaskKind::kSentiment, dz::TaskKind::kArithmetic, dz::TaskKind::kTeacher}) {
    tasks.push_back(dz::MakeTask(kind, config, MixSeed(seed, static_cast<uint64_t>(kind))));
  }
  return tasks;
}

std::vector<const dz::Task*> Raw(const std::vector<std::unique_ptr<dz::Task>>& tasks) {
  std::vector<const dz::Task*> raw;
  for (const auto& t : tasks) {
    raw.push_back(t.get());
  }
  return raw;
}

std::unique_ptr<dz::Transformer> PretrainBase(const dz::ModelConfig& config, int steps,
                                              uint64_t seed) {
  dz::Rng rng(seed);
  auto base = std::make_unique<dz::Transformer>(dz::ModelWeights::RandomInit(config, rng));
  dz::PretrainConfig pre;
  pre.steps = steps;
  pre.batch = 8;
  pre.seq_len = 20;
  dz::Pretrain(*base, pre, rng);
  return base;
}

dz::DeltaCompressConfig ArtifactConfig() {
  dz::DeltaCompressConfig cfg;
  cfg.bits = 4;
  cfg.sparse24 = true;
  cfg.lossless = true;
  return cfg;
}

}  // namespace dzbench
