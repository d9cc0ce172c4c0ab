// The three phases the benchmark measures. Each workload runs its own phase at
// full size for the run's time budget and the other two as fixed-size
// companions (a small model, a few operations), interleaved with it, so that
// every run reports every metric. A phase's own metrics never include
// companion work.
#ifndef DZBENCH_PHASES_H_
#define DZBENCH_PHASES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/compress/delta.h"
#include "src/nn/transformer.h"
#include "src/train/task.h"

namespace dzbench {

enum class Scale {
  kMain,       // the workload's own phase: full-size model, time-budgeted
  kCompanion,  // fixed small amount of work, for the metrics of other workloads
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// What one pass over a phase measured and checked.
struct PhaseResult {
  MetricMap e2e;    // the end-to-end metrics this phase owns
  MetricMap layer;  // per-layer metrics; filled on traced passes only
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // first few failed checks, for the report
  std::vector<std::string> notes;     // human-readable report lines

  void Fail(const std::string& what);
};

// A phase is measured in passes. A pass is Begin, then Slice(k) for each of
// `slices` slices, then End. main.cc interleaves the slices of the main
// phase and the companions, so every metric samples the whole run rather than
// one burst of a machine whose speed drifts over seconds.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual const char* name() const = 0;
  // Builds everything the phase needs before it is measured. Deterministic for
  // the seed; called several times in a row to time set-up, so each call
  // rebuilds from scratch. Failed set-up checks are reported by the next pass.
  virtual void Setup() = 0;
  // One-time work after set-up that only the benchmark needs (reference
  // outputs for the correctness checks). Not part of set-up time.
  virtual void Prepare() {}
  // `seconds` is the main phase's time budget for the whole pass.
  virtual void Begin(bool traced, double seconds) = 0;
  // Slice k of `slices`: a main-scale time-budgeted phase works for its share
  // of the budget; other phases do their share of a fixed amount of work.
  virtual void Slice(int k, int slices) = 0;
  // Computes the pass's metrics; `spans` are the pass's spans of this phase.
  virtual PhaseResult End(const std::vector<Span>& spans) = 0;
};

// Operations a fixed-work phase has done by the end of slice k of `slices`.
inline int ShareEnd(int total, int k, int slices) { return total * (k + 1) / slices; }

std::unique_ptr<Phase> MakePipelinePhase(Scale scale, uint64_t seed);
std::unique_ptr<Phase> MakeServePhase(Scale scale, uint64_t seed);
std::unique_ptr<Phase> MakeSimPhase(Scale scale, uint64_t seed);

// Deterministic 64-bit mix of a seed and a stream label.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

// ---- model building shared by the pipeline and serve phases ----------------------

// Fine-tuning data: a weighted mix of downstream tasks (an instruction mix).
class TaskMix : public dz::Task {
 public:
  TaskMix(std::vector<const dz::Task*> tasks, std::vector<double> weights)
      : tasks_(std::move(tasks)), weights_(std::move(weights)) {}
  dz::Example Sample(dz::Rng& rng) const override;
  std::vector<int> label_tokens() const override;
  std::string name() const override { return "task-mix"; }

 private:
  std::vector<const dz::Task*> tasks_;
  std::vector<double> weights_;
};

// The three tasks every variant is fine-tuned and scored on: easy sentiment,
// memorisation-heavy arithmetic and a teacher-defined yes/no task.
std::vector<std::unique_ptr<dz::Task>> MakeTasks(const dz::ModelConfig& config,
                                                 uint64_t seed);
std::vector<const dz::Task*> Raw(const std::vector<std::unique_ptr<dz::Task>>& tasks);
// Sampling weights of MakeTasks' tasks in the fine-tuning mix: the
// memorisation-heavy arithmetic task is oversampled, as in instruction mixes.
inline const std::vector<double> kMixWeights = {1.0, 2.5, 1.0};

// A randomly initialised base, pre-trained for `steps` steps.
std::unique_ptr<dz::Transformer> PretrainBase(const dz::ModelConfig& config, int steps,
                                              uint64_t seed);

// The artifact configuration the paper serves: 4-bit, 2:4 sparse, lossless.
dz::DeltaCompressConfig ArtifactConfig();

}  // namespace dzbench

#endif  // DZBENCH_PHASES_H_
