#include "src/compress/delta.h"

#include <gtest/gtest.h>

#include "src/compress/calibration.h"
#include "src/train/finetune.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace dz {
namespace {

// Shared fixture: a tiny pretrained base + FMT variant, built once.
class DeltaCompressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ModelConfig cfg = ModelConfig::Tiny();
    Rng rng(42);
    base_ = new Transformer(ModelWeights::RandomInit(cfg, rng));
    PretrainConfig pre;
    pre.steps = 40;
    pre.batch = 4;
    pre.seq_len = 12;
    Pretrain(*base_, pre, rng);
    task_ = MakeTask(TaskKind::kSentiment, cfg, 7).release();
    finetuned_ = new Transformer(base_->weights());
    FineTuneConfig ft;
    ft.steps = 80;
    ft.batch = 8;
    ft.lr = 2e-3f;
    FineTuneFmt(*finetuned_, *task_, ft, rng);
    calibration_ = new std::vector<std::vector<int>>();
    for (int i = 0; i < 8; ++i) {
      calibration_->push_back(task_->Sample(rng).tokens);
    }
  }

  static void TearDownTestSuite() {
    delete base_;
    delete finetuned_;
    delete task_;
    delete calibration_;
    base_ = nullptr;
    finetuned_ = nullptr;
    task_ = nullptr;
    calibration_ = nullptr;
  }

  static Transformer* base_;
  static Transformer* finetuned_;
  static Task* task_;
  static std::vector<std::vector<int>>* calibration_;
};

Transformer* DeltaCompressTest::base_ = nullptr;
Transformer* DeltaCompressTest::finetuned_ = nullptr;
Task* DeltaCompressTest::task_ = nullptr;
std::vector<std::vector<int>>* DeltaCompressTest::calibration_ = nullptr;

TEST_F(DeltaCompressTest, ArtifactCoversAllLinearLayers) {
  DeltaCompressConfig cfg;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  EXPECT_EQ(delta.layers.size(),
            7u * static_cast<size_t>(base_->config().n_layers));
  for (const auto& layer : delta.layers) {
    EXPECT_TRUE(layer.is_sparse);
    EXPECT_GT(layer.ByteSize(), 0u);
  }
  EXPECT_GT(delta.PackedByteSize(), 0u);
  EXPECT_EQ(delta.StoredByteSize(), delta.PackedByteSize());  // lossless off
}

TEST_F(DeltaCompressTest, OverlayMatchesMergedWeights) {
  // Decoupled execution (base GEMM + sparse delta) must equal inference with the
  // reconstructed dense weights — the numerical core of paper Eq. 2.
  DeltaCompressConfig cfg;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  const LinearPanels panels = LinearPanels::Pack(base_->weights());
  const LinearOverlay overlay = delta.MakeOverlay(panels);
  const Transformer merged(delta.ApplyTo(base_->weights()));
  // The host carries the fp16 embedding/norm deltas and no linear weights; the
  // overlay supplies every linear layer as base + Δ̃.
  const Transformer host(delta.HostWeights(base_->weights()));
  const std::vector<int> tokens = (*calibration_)[0];
  const Matrix via_decoupled = host.Forward(tokens, nullptr, &overlay);
  const Matrix via_merged = merged.Forward(tokens);
  EXPECT_LT(RelativeError(via_decoupled, via_merged), 1e-4);
}

TEST_F(DeltaCompressTest, PreservesAccuracyVsDirectSparseGpt) {
  // Table 1's headline contrast at miniature scale.
  const double acc_fmt = EvaluateAccuracy(*finetuned_, *task_, 150, 555);

  DeltaCompressConfig dz_cfg;
  dz_cfg.bits = 4;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, dz_cfg);
  const Transformer dz_model(delta.ApplyTo(base_->weights()));
  const double acc_dz = EvaluateAccuracy(dz_model, *task_, 150, 555);

  ObsConfig sg_cfg;
  sg_cfg.bits = 4;
  sg_cfg.prune24 = true;
  size_t sg_bytes = 0;
  const Transformer sg_model(
      SparseGptCompressModel(finetuned_->weights(), *calibration_, sg_cfg, &sg_bytes));
  const double acc_sg = EvaluateAccuracy(sg_model, *task_, 150, 555);

  // ΔCompress must stay close to FMT; direct SparseGPT must lose more.
  EXPECT_GT(acc_dz, acc_fmt - 0.08) << "ΔCompress degraded too much";
  EXPECT_GE(acc_dz, acc_sg) << "delta compression should beat direct compression";
}

TEST_F(DeltaCompressTest, TwoBitStillRecoversMostAccuracy) {
  const double acc_fmt = EvaluateAccuracy(*finetuned_, *task_, 150, 556);
  DeltaCompressConfig cfg;
  cfg.bits = 2;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  const Transformer model(delta.ApplyTo(base_->weights()));
  const double acc = EvaluateAccuracy(model, *task_, 150, 556);
  EXPECT_GT(acc, acc_fmt - 0.15);
  // 2-bit artifact must be materially smaller than 4-bit.
  DeltaCompressConfig cfg4;
  cfg4.bits = 4;
  const CompressedDelta d4 =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg4);
  EXPECT_LT(delta.PackedByteSize(), d4.PackedByteSize());
}

TEST_F(DeltaCompressTest, LosslessPassShrinksOrEqualsArtifact) {
  DeltaCompressConfig cfg;
  cfg.bits = 2;
  cfg.lossless = true;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  EXPECT_LE(delta.StoredByteSize(), delta.PackedByteSize() * 9 / 8 + 1024);
  // Serialized artifact round-trips through the codec.
  const ByteBuffer raw = delta.Serialize();
  EXPECT_EQ(GdeflateDecompress(GdeflateCompress(raw)), raw);
}

TEST_F(DeltaCompressTest, SerializeSizeMatchesAccounting) {
  DeltaCompressConfig cfg;
  const CompressedDelta delta =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  const ByteBuffer raw = delta.Serialize();
  // Serialize dumps value words as 4-byte words (zeros byte in PackedByteSize is the
  // only divergence allowed); sizes must be within a few percent.
  const double ratio =
      static_cast<double>(raw.size()) / static_cast<double>(delta.PackedByteSize());
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
}

TEST_F(DeltaCompressTest, RtnAblationIsWorseOrEqual) {
  DeltaCompressConfig obs_cfg;
  obs_cfg.bits = 2;
  DeltaCompressConfig rtn_cfg = obs_cfg;
  rtn_cfg.use_obs = false;
  const CompressedDelta d_obs =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, obs_cfg);
  const CompressedDelta d_rtn =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, rtn_cfg);
  const Transformer m_obs(d_obs.ApplyTo(base_->weights()));
  const Transformer m_rtn(d_rtn.ApplyTo(base_->weights()));
  const double acc_obs = EvaluateAccuracy(m_obs, *task_, 200, 557);
  const double acc_rtn = EvaluateAccuracy(m_rtn, *task_, 200, 557);
  EXPECT_GE(acc_obs + 0.05, acc_rtn) << "OBS should not be materially worse than RTN";
}

TEST_F(DeltaCompressTest, AwqBaselineRuns) {
  AwqConfig cfg;
  cfg.bits = 4;
  size_t bytes = 0;
  const Transformer awq_model(
      AwqCompressModel(finetuned_->weights(), *calibration_, cfg, &bytes));
  EXPECT_GT(bytes, 0u);
  const double acc = EvaluateAccuracy(awq_model, *task_, 150, 558);
  const double acc_fmt = EvaluateAccuracy(*finetuned_, *task_, 150, 558);
  EXPECT_GT(acc, acc_fmt - 0.2) << "4-bit AWQ should stay in the ballpark of FMT";
}

TEST_F(DeltaCompressTest, ParallelCompressionIsBitIdentical) {
  // Registration must not depend on thread count: the serialized artifact from a
  // 1-thread pool and an N-thread pool must match byte for byte.
  DeltaCompressConfig cfg;
  ThreadPool serial(1);
  ThreadPool threaded(4);
  const CompressedDelta one = DeltaCompress(base_->weights(), finetuned_->weights(),
                                            *calibration_, cfg, &serial);
  const CompressedDelta many = DeltaCompress(base_->weights(), finetuned_->weights(),
                                             *calibration_, cfg, &threaded);
  EXPECT_EQ(one.layers.size(), many.layers.size());
  for (size_t i = 0; i < one.layers.size(); ++i) {
    EXPECT_EQ(one.layers[i].name, many.layers[i].name) << i;
  }
  EXPECT_EQ(one.PackedByteSize(), many.PackedByteSize());
  EXPECT_EQ(one.StoredByteSize(), many.StoredByteSize());
  EXPECT_EQ(one.Serialize(), many.Serialize());
}

TEST(CalibrationTest, CapturesExpectedShape) {
  Rng rng(9);
  const ModelConfig cfg = ModelConfig::Tiny();
  const Transformer model(ModelWeights::RandomInit(cfg, rng));
  const std::vector<std::vector<int>> calib = {{1, 2, 3}, {4, 5, 6, 7}};
  const Matrix x = CaptureLayerInput(model, calib, "layer0.wq");
  EXPECT_EQ(x.rows(), 7);  // 3 + 4 token rows
  EXPECT_EQ(x.cols(), cfg.d_model);
  // w_down input has d_ff columns.
  const Matrix x2 = CaptureLayerInput(model, calib, "layer1.w_down");
  EXPECT_EQ(x2.cols(), cfg.d_ff);
}

}  // namespace
}  // namespace dz

namespace dz {
namespace {

TEST_F(DeltaCompressTest, ZeroEmbeddingDeltaCollapsesToMarker) {
  // A variant whose embeddings equal the base (frozen-embedding fine-tune) must not pay
  // fp16 embedding bytes in the artifact.
  ModelWeights frozen_ft = finetuned_->weights();
  frozen_ft.embedding = base_->weights().embedding;
  frozen_ft.lm_head = base_->weights().lm_head;
  DeltaCompressConfig cfg;
  const CompressedDelta with_emb =
      DeltaCompress(base_->weights(), finetuned_->weights(), *calibration_, cfg);
  const CompressedDelta without_emb =
      DeltaCompress(base_->weights(), frozen_ft, *calibration_, cfg);
  const size_t emb_bytes =
      (base_->weights().embedding.size() + base_->weights().lm_head.size()) * 2;
  EXPECT_LE(without_emb.PackedByteSize() + emb_bytes,
            with_emb.PackedByteSize() + 2);
  // Round-trip still works: merged weights keep base embeddings.
  const ModelWeights merged = without_emb.ApplyTo(base_->weights());
  EXPECT_EQ(RelativeError(merged.embedding, base_->weights().embedding), 0.0);
}

}  // namespace
}  // namespace dz
