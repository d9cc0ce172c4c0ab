#include "src/core/deltazip.h"

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "src/compress/serialize.h"
#include "src/train/finetune.h"

namespace dz {
namespace {

class DeltaZipServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ModelConfig cfg = ModelConfig::Tiny();
    Rng rng(99);
    auto base = Transformer(ModelWeights::RandomInit(cfg, rng));
    PretrainConfig pre;
    pre.steps = 40;
    pre.batch = 4;
    pre.seq_len = 12;
    Pretrain(base, pre, rng);
    task_ = MakeTask(TaskKind::kSentiment, cfg, 3).release();

    finetuned_ = new Transformer(base);
    FineTuneConfig ft;
    ft.steps = 80;
    ft.batch = 8;
    ft.lr = 2e-3f;
    FineTuneFmt(*finetuned_, *task_, ft, rng);

    lora_ = new LoraAdapter(
        FineTuneLora(base, *task_, 8, 16.0f, ft, rng));

    DeltaZipOptions options;
    options.compress.bits = 4;
    service_ = new DeltaZipService(std::move(base), options);

    std::vector<std::vector<int>> calib;
    for (int i = 0; i < 8; ++i) {
      calib.push_back(task_->Sample(rng).tokens);
    }
    fmt_id_ = service_->RegisterFmtModel(finetuned_->weights(), calib, "sentiment-fmt");
    lora_id_ = service_->RegisterLora(*lora_, "sentiment-lora");
  }

  static void TearDownTestSuite() {
    delete service_;
    delete finetuned_;
    delete task_;
    delete lora_;
  }

  static DeltaZipService* service_;
  static Transformer* finetuned_;
  static Task* task_;
  static LoraAdapter* lora_;
  static int fmt_id_;
  static int lora_id_;
};

DeltaZipService* DeltaZipServiceTest::service_ = nullptr;
Transformer* DeltaZipServiceTest::finetuned_ = nullptr;
Task* DeltaZipServiceTest::task_ = nullptr;
LoraAdapter* DeltaZipServiceTest::lora_ = nullptr;
int DeltaZipServiceTest::fmt_id_ = -1;
int DeltaZipServiceTest::lora_id_ = -1;

TEST_F(DeltaZipServiceTest, VariantInfoIsPopulated) {
  EXPECT_EQ(service_->variant_count(), 2);
  const VariantInfo fmt = service_->variant_info(fmt_id_);
  EXPECT_FALSE(fmt.is_lora);
  EXPECT_GT(fmt.artifact_bytes, 0u);
  EXPECT_GT(fmt.compression_ratio, 1.5);
  EXPECT_EQ(fmt.name, "sentiment-fmt");
  const VariantInfo lora = service_->variant_info(lora_id_);
  EXPECT_TRUE(lora.is_lora);
  EXPECT_LT(lora.artifact_bytes, fmt.artifact_bytes);
}

TEST_F(DeltaZipServiceTest, VariantForwardTracksFinetunedModel) {
  // The compressed variant should agree with the uncompressed FMT model on most
  // next-token decisions at the supervised position.
  Rng rng(5);
  int agree = 0;
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    const Example ex = task_->Sample(rng);
    const Matrix a = service_->Forward(fmt_id_, ex.tokens);
    const Matrix b = finetuned_->Forward(ex.tokens);
    const float* ra = a.row(a.rows() - 1);
    const float* rb = b.row(b.rows() - 1);
    const int la =
        ra[Vocab::kLabelYes] >= ra[Vocab::kLabelNo] ? Vocab::kLabelYes : Vocab::kLabelNo;
    const int lb =
        rb[Vocab::kLabelYes] >= rb[Vocab::kLabelNo] ? Vocab::kLabelYes : Vocab::kLabelNo;
    agree += la == lb ? 1 : 0;
  }
  EXPECT_GE(agree, n * 8 / 10);
}

TEST_F(DeltaZipServiceTest, GenerateWorksForAllVariantKinds) {
  const std::vector<int> prompt = {1, 2, 3};
  const auto base_out = service_->Generate(-1, prompt, 4);
  const auto fmt_out = service_->Generate(fmt_id_, prompt, 4);
  const auto lora_out = service_->Generate(lora_id_, prompt, 4);
  EXPECT_FALSE(base_out.empty());
  EXPECT_FALSE(fmt_out.empty());
  EXPECT_FALSE(lora_out.empty());
}

TEST_F(DeltaZipServiceTest, ServingSimulationRuns) {
  TraceConfig tc;
  tc.n_models = 8;
  tc.arrival_rate = 0.5;
  tc.duration_s = 60.0;
  tc.output_mean_tokens = 50.0;
  tc.output_max_tokens = 150;
  const Trace trace = GenerateTrace(tc);
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  const ServeReport dz = service_->SimulateServing(trace, cfg);
  EXPECT_EQ(dz.completed(), trace.requests.size());
  cfg.artifact = ArtifactKind::kFullModel;
  const ServeReport scb = service_->SimulateServing(trace, cfg);
  EXPECT_EQ(scb.engine_name, "vllm-scb");
}

}  // namespace
}  // namespace dz

namespace dz {
namespace {

TEST_F(DeltaZipServiceTest, RegisterArtifactFromDiskMatchesDirectRegistration) {
  // Delta-zoo round trip: write the compressed artifact to disk, read it back, register
  // the decoded copy, and verify it behaves identically to the directly-registered one.
  const std::string path = ::testing::TempDir() + "/zoo_artifact.bin";
  ASSERT_TRUE(WriteDeltaFile(path, service_->delta(fmt_id_)));
  CompressedDelta loaded;
  ASSERT_TRUE(ReadDeltaFile(path, loaded));
  const int vid = service_->RegisterCompressedDelta(std::move(loaded), "from-disk");
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    const Example ex = task_->Sample(rng);
    const Matrix a = service_->Forward(fmt_id_, ex.tokens);
    const Matrix b = service_->Forward(vid, ex.tokens);
    EXPECT_LT(RelativeError(a, b), 1e-6) << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dz

namespace dz {
namespace {

// FNV-1a over the bit patterns of a matrix: pins every value exactly.
uint64_t BitHash(const Matrix& m) {
  uint64_t h = 1469598103934665603ull;
  for (float v : m.data()) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xFFu)) * 1099511628211ull;
    }
  }
  return h;
}

// A ModelConfig::Small variant served through the decoupled path. Its shapes
// reach every edge of the decode-step panels: d_ff = 172 leaves a 12-row tail
// panel, and w_down's 86 kept slots per row split into groups of 64 and 22.
// The tokens and the logits' bit hashes were pinned from the kernels that
// predate the panels (base GemmNT plus the 2:4 gather GEMM); the panel kernels
// must reproduce them bit for bit on every backend. The 8-token Forward runs
// the fused decode-step sweep on wide backends; the 24-token one the base
// panels plus the gather GEMM.
TEST(DeltaZipSmallVariantTest, GenerateAndForwardMatchPinnedValues) {
  const ModelConfig cfg = ModelConfig::Small();
  Rng rng(2024);
  Transformer base(ModelWeights::RandomInit(cfg, rng));
  PretrainConfig pre;
  pre.steps = 6;
  pre.batch = 4;
  pre.seq_len = 12;
  Pretrain(base, pre, rng);
  const auto task = MakeTask(TaskKind::kSentiment, cfg, 7);
  Transformer tuned(base.weights());
  FineTuneConfig ft;
  ft.steps = 6;
  ft.batch = 4;
  ft.lr = 2e-3f;
  FineTuneFmt(tuned, *task, ft, rng);
  std::vector<std::vector<int>> calib;
  for (int i = 0; i < 4; ++i) {
    calib.push_back(task->Sample(rng).tokens);
  }
  DeltaZipService service(std::move(base), DeltaZipOptions{});
  const int id = service.RegisterFmtModel(tuned.weights(), calib);

  const std::vector<int> prompt = {3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<int> long_seq;
  for (int i = 0; i < 24; ++i) {
    long_seq.push_back((i * 37 + 11) % cfg.vocab_size);
  }
  EXPECT_EQ(service.Generate(id, prompt, 12), (std::vector<int>{110, 110, 110, 110, 110, 110, 110, 110, 110, 110, 111, 110}));
  EXPECT_EQ(service.Generate(-1, prompt, 12), (std::vector<int>{88, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}));
  EXPECT_EQ(BitHash(service.Forward(id, prompt)), 0xa32c22d286ba583eull);
  EXPECT_EQ(BitHash(service.Forward(id, long_seq)), 0x345950a760ef20f9ull);
  EXPECT_EQ(BitHash(service.Forward(-1, long_seq)), 0x8e43c8304c63f8b2ull);

  // The variant shares the service's base panels: its host model holds no
  // linear weights of its own.
  for (const auto& layer : service.host(id).weights().LinearLayers()) {
    EXPECT_EQ(layer.weight->size(), 0u) << layer.name;
  }
}

}  // namespace
}  // namespace dz
