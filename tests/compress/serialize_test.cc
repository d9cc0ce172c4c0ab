#include "src/compress/serialize.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "src/train/finetune.h"
#include "src/util/rng.h"

namespace dz {
namespace {

// Builds a small genuine artifact once for all round-trip tests.
class SerializeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ModelConfig cfg = ModelConfig::Tiny();
    Rng rng(321);
    base_ = new Transformer(ModelWeights::RandomInit(cfg, rng));
    PretrainConfig pre;
    pre.steps = 20;
    pre.batch = 4;
    pre.seq_len = 10;
    Pretrain(*base_, pre, rng);
    const auto task = MakeTask(TaskKind::kSentiment, cfg, 5);
    Transformer finetuned(base_->weights());
    FineTuneConfig ft;
    ft.steps = 30;
    ft.batch = 4;
    FineTuneFmt(finetuned, *task, ft, rng);
    std::vector<std::vector<int>> calib;
    for (int i = 0; i < 4; ++i) {
      calib.push_back(task->Sample(rng).tokens);
    }
    DeltaCompressConfig dc;
    dc.bits = 4;
    delta_ = new CompressedDelta(
        DeltaCompress(base_->weights(), finetuned.weights(), calib, dc));
    DeltaCompressConfig dense_dc;
    dense_dc.bits = 2;
    dense_dc.sparse24 = false;
    dense_delta_ = new CompressedDelta(
        DeltaCompress(base_->weights(), finetuned.weights(), calib, dense_dc));
  }

  static void TearDownTestSuite() {
    delete base_;
    delete delta_;
    delete dense_delta_;
  }

  static Transformer* base_;
  static CompressedDelta* delta_;
  static CompressedDelta* dense_delta_;
};

Transformer* SerializeTest::base_ = nullptr;
CompressedDelta* SerializeTest::delta_ = nullptr;
CompressedDelta* SerializeTest::dense_delta_ = nullptr;

TEST_F(SerializeTest, RoundTripPreservesReconstruction) {
  const ByteBuffer encoded = EncodeDelta(*delta_);
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(encoded, decoded));
  ASSERT_EQ(decoded.layers.size(), delta_->layers.size());
  // The decoded artifact must produce bit-identical merged weights.
  const ModelWeights a = delta_->ApplyTo(base_->weights());
  const ModelWeights b = decoded.ApplyTo(base_->weights());
  for (size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(RelativeError(a.layers[i].wq, b.layers[i].wq), 0.0) << i;
    EXPECT_EQ(RelativeError(a.layers[i].w_down, b.layers[i].w_down), 0.0) << i;
  }
  EXPECT_EQ(RelativeError(a.embedding, b.embedding), 0.0);
}

TEST_F(SerializeTest, RoundTripDenseFormat) {
  const ByteBuffer encoded = EncodeDelta(*dense_delta_);
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(encoded, decoded));
  EXPECT_FALSE(decoded.layers.front().is_sparse);
  const ModelWeights a = dense_delta_->ApplyTo(base_->weights());
  const ModelWeights b = decoded.ApplyTo(base_->weights());
  EXPECT_EQ(RelativeError(a.layers[0].wo, b.layers[0].wo), 0.0);
}

TEST_F(SerializeTest, DecodedConfigMatches) {
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(EncodeDelta(*delta_), decoded));
  EXPECT_EQ(decoded.config.bits, delta_->config.bits);
  EXPECT_EQ(decoded.config.sparse24, delta_->config.sparse24);
  EXPECT_EQ(decoded.config.group_size, delta_->config.group_size);
}

TEST_F(SerializeTest, RejectsBadMagic) {
  ByteBuffer encoded = EncodeDelta(*delta_);
  encoded[0] ^= 0xFF;
  CompressedDelta decoded;
  EXPECT_FALSE(DecodeDelta(encoded, decoded));
}

TEST_F(SerializeTest, RejectsTruncation) {
  const ByteBuffer encoded = EncodeDelta(*delta_);
  for (size_t cut : {encoded.size() / 4, encoded.size() / 2, encoded.size() - 3}) {
    ByteBuffer truncated(encoded.begin(), encoded.begin() + static_cast<long>(cut));
    CompressedDelta decoded;
    EXPECT_FALSE(DecodeDelta(truncated, decoded)) << "cut=" << cut;
  }
}

TEST_F(SerializeTest, RejectsTrailingGarbage) {
  ByteBuffer encoded = EncodeDelta(*delta_);
  encoded.push_back(0xAB);
  CompressedDelta decoded;
  EXPECT_FALSE(DecodeDelta(encoded, decoded));
}

// Field offsets in an EncodeDelta buffer (layout in serialize.h): the header
// puts config.group_size at byte 13 and the layer count at 23; the first
// layer's name (u32 length + bytes) starts at 27, then its kind byte and its
// rows, cols and bits as u32.
constexpr size_t kGroupSizeAt = 13;

uint32_t GetU32(const ByteBuffer& b, size_t at) {
  return static_cast<uint32_t>(b[at]) | static_cast<uint32_t>(b[at + 1]) << 8 |
         static_cast<uint32_t>(b[at + 2]) << 16 | static_cast<uint32_t>(b[at + 3]) << 24;
}

void PutU32(ByteBuffer& b, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

size_t FirstLayerRowsAt(const ByteBuffer& b) { return 27 + 4 + GetU32(b, 27) + 1; }

// Decodes `encoded` with one u32 field replaced; must fail cleanly.
bool DecodesWith(ByteBuffer encoded, size_t at, uint32_t value) {
  PutU32(encoded, at, value);
  CompressedDelta decoded;
  return DecodeDelta(encoded, decoded);
}

TEST_F(SerializeTest, RejectsZeroGroupSize) {
  for (const CompressedDelta* delta : {delta_, dense_delta_}) {
    EXPECT_FALSE(DecodesWith(EncodeDelta(*delta), kGroupSizeAt, 0));
  }
}

TEST_F(SerializeTest, RejectsUnsupportedBitWidth) {
  for (const CompressedDelta* delta : {delta_, dense_delta_}) {
    const ByteBuffer encoded = EncodeDelta(*delta);
    const size_t bits_at = FirstLayerRowsAt(encoded) + 8;
    for (uint32_t bits : {0u, 3u, 16u, 32u}) {
      EXPECT_FALSE(DecodesWith(encoded, bits_at, bits)) << "bits=" << bits;
    }
  }
}

TEST_F(SerializeTest, RejectsNonPositiveRows) {
  for (const CompressedDelta* delta : {delta_, dense_delta_}) {
    const ByteBuffer encoded = EncodeDelta(*delta);
    for (uint32_t rows : {0u, 0xFFFFFFFFu, 0x80000000u}) {
      EXPECT_FALSE(DecodesWith(encoded, FirstLayerRowsAt(encoded), rows))
          << "rows=" << rows;
    }
  }
}

TEST_F(SerializeTest, RejectsColsNotMultipleOfFour) {
  const ByteBuffer encoded = EncodeDelta(*delta_);
  const size_t cols_at = FirstLayerRowsAt(encoded) + 4;
  const uint32_t cols = GetU32(encoded, cols_at);
  ASSERT_EQ(cols % 4, 0u);
  for (uint32_t bad : {cols + 1, cols + 2, cols - 1, 0xFFFFFFFCu}) {
    EXPECT_FALSE(DecodesWith(encoded, cols_at, bad)) << "cols=" << bad;
  }
}

TEST_F(SerializeTest, RejectsStorageLengthsNotMatchingDims) {
  // Valid-looking dims whose implied packed/index/scale/zero lengths differ from
  // the arrays that follow them.
  for (const CompressedDelta* delta : {delta_, dense_delta_}) {
    const ByteBuffer encoded = EncodeDelta(*delta);
    const size_t rows_at = FirstLayerRowsAt(encoded);
    const uint32_t rows = GetU32(encoded, rows_at);
    const uint32_t cols = GetU32(encoded, rows_at + 4);
    EXPECT_FALSE(DecodesWith(encoded, rows_at, rows + 1));
    EXPECT_FALSE(DecodesWith(encoded, rows_at, rows - 1));
    EXPECT_FALSE(DecodesWith(encoded, rows_at + 4, cols + 64));
    EXPECT_FALSE(DecodesWith(encoded, rows_at + 8, delta->config.bits == 4 ? 2 : 4));
  }
  // A group size that changes the number of groups per row.
  EXPECT_FALSE(DecodesWith(EncodeDelta(*delta_), kGroupSizeAt, 1));
}

TEST_F(SerializeTest, StoredSizeIsMeasuredOnFirstUse) {
  // DecodeDelta does not re-run the lossless codec; StoredByteSize() measures
  // it on first use and keeps it, equal to the original artifact's.
  DeltaCompressConfig dc = delta_->config;
  dc.lossless = true;
  CompressedDelta lossless = *delta_;
  lossless.config = dc;
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(EncodeDelta(lossless), decoded));
  EXPECT_EQ(decoded.StoredByteSize(), GdeflateCompress(lossless.Serialize()).size());
  EXPECT_EQ(decoded.StoredByteSize(), lossless.StoredByteSize());
  // A copy is measured afresh, so editing it before first use is safe.
  CompressedDelta edited = decoded;
  edited.config.lossless = false;
  EXPECT_EQ(edited.StoredByteSize(), edited.PackedByteSize());
}

TEST_F(SerializeTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dz_artifact.bin";
  ASSERT_TRUE(WriteDeltaFile(path, *delta_));
  CompressedDelta decoded;
  ASSERT_TRUE(ReadDeltaFile(path, decoded));
  EXPECT_EQ(decoded.layers.size(), delta_->layers.size());
  EXPECT_EQ(decoded.StoredByteSize(), delta_->StoredByteSize());
  std::remove(path.c_str());
}

TEST_F(SerializeTest, ReadMissingFileFails) {
  CompressedDelta decoded;
  EXPECT_FALSE(ReadDeltaFile("/nonexistent/dir/artifact.bin", decoded));
}

TEST_F(SerializeTest, LosslessComposesWithEncoding) {
  // The on-disk artifact can additionally ride the lossless codec.
  const ByteBuffer encoded = EncodeDelta(*delta_);
  const ByteBuffer packed = GdeflateCompress(encoded);
  CompressedDelta decoded;
  ASSERT_TRUE(DecodeDelta(GdeflateDecompress(packed), decoded));
  EXPECT_EQ(decoded.layers.size(), delta_->layers.size());
}

}  // namespace
}  // namespace dz
