// fmt_pipeline: a closed loop with one caller. Each operation takes one new
// variant through the paper's producer path: full-model fine-tuning on a
// weighted task mix, ΔCompress (4-bit, 2:4, lossless), artifact encoding, a
// byte-identical round trip, and scoring of the fp16 and compressed models.
#include <cmath>
#include <cstdio>

#include "phases.h"
#include "src/compress/serialize.h"
#include "src/train/finetune.h"

namespace dzbench {
namespace {

struct PipelineScale {
  dz::ModelConfig config;
  int pretrain_steps = 0;
  int finetune_steps = 0;
  int batch = 8;
  int calib_samples = 12;
  int eval_n = 0;     // examples per task
  int fixed_ops = 0;  // companion: this many variants; main: time-budgeted
};

PipelineScale ScaleFor(Scale scale) {
  PipelineScale s;
  if (scale == Scale::kMain) {
    s.config = dz::ModelConfig::Medium();  // "llama-sim-7b"
    s.pretrain_steps = 40;
    s.finetune_steps = 100;
    s.eval_n = 64;
  } else {
    s.config = dz::ModelConfig::Tiny();
    s.pretrain_steps = 40;
    s.finetune_steps = 30;
    s.eval_n = 32;
    s.fixed_ops = 48;
  }
  return s;
}

// Analytic FLOPs of one training example of `t` tokens: forward matmuls
// (2·t·params for every linear layer and the LM head, 4·t²·d per layer for the
// attention scores and mixing), times three for forward plus backward.
double TrainExampleFlops(const dz::ModelWeights& w, size_t t) {
  double matmul_params = static_cast<double>(w.lm_head.size());
  for (const auto& layer : w.LinearLayers()) {
    matmul_params += static_cast<double>(layer.weight->size());
  }
  const double td = static_cast<double>(t);
  const double attention = 4.0 * td * td * w.config.d_model * w.config.n_layers;
  return 3.0 * (2.0 * td * matmul_params + attention);
}

double MeanAccuracy(const dz::Transformer& model,
                    const std::vector<std::unique_ptr<dz::Task>>& tasks, int n,
                    uint64_t eval_seed) {
  double sum = 0.0;
  for (size_t t = 0; t < tasks.size(); ++t) {
    sum += dz::EvaluateAccuracy(model, *tasks[t], n, eval_seed + t);
  }
  return sum / static_cast<double>(tasks.size());
}

class PipelinePhase : public Phase {
 public:
  PipelinePhase(Scale scale, uint64_t seed)
      : scale_(scale), s_(ScaleFor(scale)), seed_(MixSeed(seed, 0x919e)) {}

  const char* name() const override { return "fmt_pipeline"; }

  void Setup() override {
    const double t0 = NowS();
    base_ = PretrainBase(s_.config, s_.pretrain_steps, seed_);
    pretrain_s_.push_back(NowS() - t0);
    tasks_ = MakeTasks(s_.config, seed_);
  }

  void Begin(bool traced, double seconds) override {
    traced_ = traced;
    seconds_ = seconds;
    r_ = PhaseResult();
    acc_ = Acc();
  }

  void Slice(int k, int slices) override {
    const double cpu0 = CpuS();
    const double t0 = NowS();
    const ScopedSpan root("pipeline.slice", 0, -1);
    // A time-budgeted pass keeps a cumulative deadline, so a slice that ran
    // over shortens the next one.
    for (int op = static_cast<int>(r_.attempted);; ++op) {
      const bool done = s_.fixed_ops > 0
                            ? op >= ShareEnd(s_.fixed_ops, k, slices)
                            : acc_.wall_s + NowS() - t0 >= seconds_ * (k + 1) / slices;
      if (done) {
        break;
      }
      RunVariant(next_variant_++);
    }
    acc_.wall_s += NowS() - t0;
    acc_.cpu_s += CpuS() - cpu0;
  }

  PhaseResult End(const std::vector<Span>& spans) override {
    PhaseResult r = std::move(r_);
    const Acc& acc = acc_;
    if (acc.ops == 0) {
      r.Fail("fmt_pipeline: no variant completed");
      return r;
    }
    r.e2e["pipeline_variants_per_s"] = {1.0 / Median(acc.op_s), "1/s"};
    r.e2e["compression_ratio"] = {acc.fp16_bytes / acc.stored_bytes, "ratio"};
    r.e2e["quality_retained"] = {acc.acc_compressed / acc.acc_fp16, "ratio"};
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s %s: %lld variants in %.2f s; fp16 acc %.3f, compressed acc %.3f, "
                  "artifact %.0f B (fp16 %.0f B)",
                  name(), scale_ == Scale::kMain ? "main" : "companion", acc.ops, acc.wall_s,
                  acc.acc_fp16 / acc.ops, acc.acc_compressed / acc.ops,
                  acc.stored_bytes / acc.ops, acc.fp16_bytes / acc.ops);
    r.notes.push_back(line);
    if (traced_) {
      const auto totals = TotalsByName(spans);
      auto mean_s = [&](const char* n) {
        const auto it = totals.find(n);
        return it == totals.end() ? 0.0 : it->second.total_s / static_cast<double>(acc.ops);
      };
      const double finetune_s = mean_s("train.finetune");
      r.layer["train.finetune_s"] = {finetune_s, "s"};
      r.layer["train.step_gflops"] = {TrainFlops() / acc.ops / finetune_s * 1e-9, "GFLOP/s"};
      r.layer["pipeline.cpu_per_wall"] = {acc.cpu_s / acc.wall_s, "ratio"};
      r.layer["compress.delta_compress_s"] = {mean_s("compress.delta_compress"), "s"};
      r.layer["compress.encode_s"] = {
          mean_s("compress.encode_delta") + mean_s("compress.gdeflate_compress"), "s"};
      r.layer["compress.lossless_ratio"] = {acc.encoded_bytes / acc.stored_bytes, "ratio"};
      r.layer["nn.eval_s"] = {mean_s("nn.eval"), "s"};
      r.layer["setup.pretrain_s"] = {Median(pretrain_s_), "s"};
    }
    return r;
  }

 private:
  struct Acc {
    long long ops = 0;
    std::vector<double> op_s;  // wall time of each completed variant
    std::vector<uint64_t> variant_seeds;  // of each completed variant
    double fp16_bytes = 0.0;
    double encoded_bytes = 0.0;
    double stored_bytes = 0.0;
    double acc_fp16 = 0.0;
    double acc_compressed = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };

  // Analytic training FLOPs of the completed variants. FineTuneFmt draws its
  // examples from the variant's rng and nothing else, so replaying the rng
  // gives the exact token counts; done after the pass, outside every timer.
  double TrainFlops() const {
    const TaskMix mix(Raw(tasks_), kMixWeights);
    double flops = 0.0;
    for (uint64_t vseed : acc_.variant_seeds) {
      dz::Rng replay(vseed);
      for (int i = 0; i < s_.finetune_steps * s_.batch; ++i) {
        flops += TrainExampleFlops(base_->weights(), mix.Sample(replay).tokens.size());
      }
    }
    return flops;
  }

  void RunVariant(int variant) {
    PhaseResult& r = r_;
    Acc& acc = acc_;
    const uint64_t vseed = MixSeed(seed_, 1000 + static_cast<uint64_t>(variant));
    const auto group = static_cast<uint64_t>(variant);
    const double t0 = NowS();
    const ScopedSpan op("pipeline.variant", group);
    ++r.attempted;
    const TaskMix mix(Raw(tasks_), kMixWeights);
    const dz::Transformer& base = *base_;

    dz::FineTuneConfig ft;
    ft.steps = s_.finetune_steps;
    ft.batch = s_.batch;
    ft.lr = 2e-3f;
    ft.freeze_embeddings = true;
    dz::Rng rng(vseed);
    dz::Transformer tuned(base.weights());
    {
      const ScopedSpan s("train.finetune", group);
      dz::FineTuneFmt(tuned, mix, ft, rng);
    }

    std::vector<std::vector<int>> calibration;
    for (int i = 0; i < s_.calib_samples; ++i) {
      calibration.push_back(mix.Sample(rng).tokens);
    }
    dz::CompressedDelta delta;
    {
      const ScopedSpan s("compress.delta_compress", group);
      delta = dz::DeltaCompress(base.weights(), tuned.weights(), calibration, ArtifactConfig());
    }
    dz::ByteBuffer encoded;
    {
      const ScopedSpan s("compress.encode_delta", group);
      encoded = dz::EncodeDelta(delta);
    }
    dz::ByteBuffer stored;
    {
      const ScopedSpan s("compress.gdeflate_compress", group);
      stored = dz::GdeflateCompress(encoded);
    }

    // Round trip: the stored bytes must give back the encoded artifact, which
    // must decode into an artifact that encodes to the same bytes.
    dz::ByteBuffer restored;
    {
      const ScopedSpan s("compress.gdeflate_decompress", group);
      restored = dz::GdeflateDecompress(stored);
    }
    dz::CompressedDelta decoded;
    bool decoded_ok = false;
    {
      const ScopedSpan s("compress.decode_delta", group);
      decoded_ok = dz::DecodeDelta(restored, decoded);
    }
    dz::ByteBuffer reencoded;
    {
      const ScopedSpan s("compress.reencode_delta", group);
      reencoded = dz::EncodeDelta(decoded);
    }
    if (restored != encoded || !decoded_ok || reencoded != encoded) {
      r.Fail("fmt_pipeline variant " + std::to_string(variant) +
             ": artifact round trip is not byte-identical");
      return;
    }

    double acc_fp16 = 0.0;
    double acc_compressed = 0.0;
    {
      const ScopedSpan s("nn.eval", group);
      acc_fp16 = MeanAccuracy(tuned, tasks_, s_.eval_n, seed_ ^ 0xE7A1);
    }
    dz::ModelWeights merged_weights;
    {
      const ScopedSpan s("compress.apply", group);
      merged_weights = decoded.ApplyTo(base.weights());
    }
    const dz::Transformer merged(std::move(merged_weights));
    {
      const ScopedSpan s("nn.eval", group);
      acc_compressed = MeanAccuracy(merged, tasks_, s_.eval_n, seed_ ^ 0xE7A1);
    }
    if (!std::isfinite(acc_fp16) || !std::isfinite(acc_compressed) || acc_fp16 <= 0.0 ||
        stored.size() >= tuned.weights().Fp16ByteSize()) {
      r.Fail("fmt_pipeline variant " + std::to_string(variant) +
             ": implausible accuracy or artifact size");
      return;
    }
    ++acc.ops;
    acc.op_s.push_back(NowS() - t0);
    acc.variant_seeds.push_back(vseed);
    acc.fp16_bytes += static_cast<double>(tuned.weights().Fp16ByteSize());
    acc.encoded_bytes += static_cast<double>(encoded.size());
    acc.stored_bytes += static_cast<double>(stored.size());
    acc.acc_fp16 += acc_fp16;
    acc.acc_compressed += acc_compressed;
  }

  Scale scale_;
  PipelineScale s_;
  uint64_t seed_;
  std::unique_ptr<dz::Transformer> base_;
  std::vector<std::unique_ptr<dz::Task>> tasks_;
  std::vector<double> pretrain_s_;
  int next_variant_ = 0;
  // The pass in progress.
  bool traced_ = false;
  double seconds_ = 0.0;
  PhaseResult r_;
  Acc acc_;
};

}  // namespace

std::unique_ptr<Phase> MakePipelinePhase(Scale scale, uint64_t seed) {
  return std::make_unique<PipelinePhase>(scale, seed);
}

}  // namespace dzbench
