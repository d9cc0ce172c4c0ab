#include "src/compress/delta.h"

#include <cstring>

#include "src/compress/calibration.h"
#include "src/tensor/half.h"
#include "src/tensor/kernels.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace dz {

Matrix CompressedDeltaLayer::Dequantize() const {
  return is_sparse ? sparse.Dequantize() : dense.Dequantize();
}

Matrix CompressedDeltaLayer::MatmulNT(const Matrix& x) const {
  return is_sparse ? sparse.MatmulNT(x) : dense.MatmulNT(x);
}

size_t CompressedDeltaLayer::ByteSize() const {
  return is_sparse ? sparse.ByteSize() : dense.ByteSize();
}

namespace {

size_t Fp16Bytes(const Matrix& m) { return m.size() * 2; }

size_t Fp16Bytes(const std::vector<float>& v) { return v.size() * 2; }

void AppendFp16(ByteBuffer& out, const float* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint16_t h = FloatToHalfBits(data[i]);
    out.push_back(static_cast<uint8_t>(h & 0xFF));
    out.push_back(static_cast<uint8_t>(h >> 8));
  }
}

void AppendWords(ByteBuffer& out, const std::vector<uint32_t>& words) {
  for (uint32_t w : words) {
    out.push_back(static_cast<uint8_t>(w & 0xFF));
    out.push_back(static_cast<uint8_t>((w >> 8) & 0xFF));
    out.push_back(static_cast<uint8_t>((w >> 16) & 0xFF));
    out.push_back(static_cast<uint8_t>((w >> 24) & 0xFF));
  }
}

}  // namespace

size_t CompressedDelta::PackedByteSize() const {
  size_t total = 0;
  for (const auto& layer : layers) {
    total += layer.ByteSize();
  }
  // All-zero deltas (e.g. frozen embeddings) collapse to a 1-byte "unchanged" marker.
  total += embedding_delta.FrobeniusNorm() == 0.0 ? 1 : Fp16Bytes(embedding_delta);
  total += lm_head_delta.FrobeniusNorm() == 0.0 ? 1 : Fp16Bytes(lm_head_delta);
  total += Fp16Bytes(final_norm_delta);
  for (const auto& v : attn_norm_deltas) {
    total += Fp16Bytes(v);
  }
  for (const auto& v : mlp_norm_deltas) {
    total += Fp16Bytes(v);
  }
  return total;
}

ByteBuffer CompressedDelta::Serialize() const {
  ByteBuffer out;
  out.reserve(PackedByteSize());
  // Dump codes, indices, and quantization parameters in layer order. The exact field
  // order only needs to be deterministic for the lossless pass to be meaningful.
  for (const auto& layer : layers) {
    if (layer.is_sparse) {
      AppendWords(out, layer.sparse.packed_values());
      AppendWords(out, layer.sparse.packed_indices());
      AppendFp16(out, layer.sparse.scales().data(), layer.sparse.scales().size());
    } else {
      AppendWords(out, layer.dense.packed());
      AppendFp16(out, layer.dense.scales().data(), layer.dense.scales().size());
    }
  }
  if (embedding_delta.FrobeniusNorm() != 0.0) {
    AppendFp16(out, embedding_delta.data().data(), embedding_delta.size());
  } else {
    out.push_back(0);  // "unchanged" marker
  }
  if (lm_head_delta.FrobeniusNorm() != 0.0) {
    AppendFp16(out, lm_head_delta.data().data(), lm_head_delta.size());
  } else {
    out.push_back(0);
  }
  AppendFp16(out, final_norm_delta.data(), final_norm_delta.size());
  for (const auto& v : attn_norm_deltas) {
    AppendFp16(out, v.data(), v.size());
  }
  for (const auto& v : mlp_norm_deltas) {
    AppendFp16(out, v.data(), v.size());
  }
  return out;
}

size_t CompressedDelta::StoredByteSize() const {
  // A race computes the same value twice; every caller sees a complete one.
  size_t bytes = stored_bytes_.bytes_.load();
  if (bytes == 0) {
    bytes = config.lossless ? GdeflateCompress(Serialize()).size() : PackedByteSize();
    stored_bytes_.bytes_.store(bytes);
  }
  return bytes;
}

LinearOverlay CompressedDelta::MakeOverlay(const LinearPanels& base) const {
  LinearOverlay overlay = base.MakeOverlay();
  for (const auto& layer : layers) {
    const auto it = base.by_name.find(layer.name);
    DZ_CHECK(it != base.by_name.end());
    const PanelMatrix* base_w = &it->second;
    const CompressedDeltaLayer* delta = &layer;
    if (delta->is_sparse) {
      overlay.ops[layer.name] = [base_w, delta](const Matrix& x) {
        return kernels::PanelGemmNT(x, *base_w, &delta->sparse);
      };
    } else {
      overlay.ops[layer.name] = [base_w, delta](const Matrix& x) {
        Matrix y = kernels::PanelGemmNT(x, *base_w);
        y.AddInPlace(delta->dense.MatmulNT(x));
        return y;
      };
    }
  }
  return overlay;
}

void CompressedDelta::AddNonLinearDeltas(ModelWeights& w) const {
  auto add_vec = [](std::vector<float>& dst, const std::vector<float>& delta) {
    DZ_CHECK_EQ(dst.size(), delta.size());
    for (size_t i = 0; i < dst.size(); ++i) {
      dst[i] += delta[i];
    }
  };
  w.embedding.AddInPlace(embedding_delta);
  w.lm_head.AddInPlace(lm_head_delta);
  add_vec(w.final_norm, final_norm_delta);
  DZ_CHECK_EQ(attn_norm_deltas.size(), w.layers.size());
  for (size_t i = 0; i < w.layers.size(); ++i) {
    add_vec(w.layers[i].attn_norm, attn_norm_deltas[i]);
    add_vec(w.layers[i].mlp_norm, mlp_norm_deltas[i]);
  }
}

ModelWeights CompressedDelta::HostWeights(const ModelWeights& base) const {
  ModelWeights host;
  host.config = base.config;
  host.embedding = base.embedding;
  host.final_norm = base.final_norm;
  host.lm_head = base.lm_head;
  host.layers.resize(base.layers.size());
  for (size_t i = 0; i < base.layers.size(); ++i) {
    host.layers[i].attn_norm = base.layers[i].attn_norm;
    host.layers[i].mlp_norm = base.layers[i].mlp_norm;
  }
  AddNonLinearDeltas(host);
  return host;
}

ModelWeights CompressedDelta::ApplyTo(const ModelWeights& base) const {
  ModelWeights merged = base;
  for (const auto& layer : layers) {
    for (auto& named : merged.LinearLayers()) {
      if (named.name == layer.name) {
        named.weight->AddInPlace(layer.Dequantize());
        break;
      }
    }
  }
  AddNonLinearDeltas(merged);
  return merged;
}

namespace {

// The four intra-block groups of Alg. 1's execution order: layers in a group share the
// same input activations, so one capture pass serves the whole group.
struct LayerGroup {
  std::vector<const char*> members;
};

const std::vector<LayerGroup>& BlockGroups() {
  static const std::vector<LayerGroup> groups = {
      {{"wq", "wk", "wv"}},
      {{"wo"}},
      {{"w_gate", "w_up"}},
      {{"w_down"}},
  };
  return groups;
}

Matrix* FindWeight(ModelWeights& w, const std::string& name) {
  for (auto& named : w.LinearLayers()) {
    if (named.name == name) {
      return named.weight;
    }
  }
  DZ_CHECK(false);
  return nullptr;
}

const Matrix* FindWeight(const ModelWeights& w, const std::string& name) {
  return FindWeight(const_cast<ModelWeights&>(w), name);
}

std::vector<float> VecDelta(const std::vector<float>& ft, const std::vector<float>& base) {
  DZ_CHECK_EQ(ft.size(), base.size());
  std::vector<float> d(ft.size());
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = RoundToHalf(ft[i] - base[i]);
  }
  return d;
}

Matrix MatrixDeltaFp16(const Matrix& ft, const Matrix& base) {
  Matrix d = Sub(ft, base);
  d.RoundToHalfInPlace();
  return d;
}

}  // namespace

CompressedDelta DeltaCompress(const ModelWeights& base, const ModelWeights& finetuned,
                              const std::vector<std::vector<int>>& calibration,
                              const DeltaCompressConfig& config,
                              ThreadPool* pool_override) {
  DZ_CHECK_EQ(base.config.n_layers, finetuned.config.n_layers);
  CompressedDelta out;
  out.config = config;

  ObsConfig obs_config;
  obs_config.bits = config.bits;
  obs_config.group_size = config.group_size;
  obs_config.prune24 = config.sparse24;
  obs_config.damp_ratio = config.damp_ratio;

  // Work model starts as the fine-tuned model; every compressed layer is replaced by
  // its reconstruction w_base + Δ̃ before later layers are calibrated (Alg. 1 line 6).
  ModelWeights work = finetuned;

  // Alg. 1 is sequential across groups (each group's calibration inputs depend
  // on the reconstructions of everything before it), but the members of one
  // group share the same input x and are independent of each other — compress
  // them concurrently on the global pool. Results land in per-member slots and
  // are committed in member order, so the artifact is bit-identical for any
  // thread count. The capture itself parallelizes across calibration sequences
  // inside CaptureLayerInput.
  ThreadPool& pool =
      pool_override != nullptr ? *pool_override : ThreadPool::Global();
  for (int li = 0; li < base.config.n_layers; ++li) {
    for (const LayerGroup& group : BlockGroups()) {
      const std::string capture_name = LinearLayerName(li, group.members.front());
      const Transformer snapshot(work);
      const Matrix x = CaptureLayerInput(snapshot, calibration, capture_name, &pool);

      const size_t n_members = group.members.size();
      std::vector<CompressedDeltaLayer> group_layers(n_members);
      std::vector<Matrix> group_reconstructed(n_members);
      pool.ForEachTask(n_members, [&](size_t mi) {
        const std::string name = LinearLayerName(li, group.members[mi]);
        const Matrix* w_base = FindWeight(base, name);
        const Matrix* w_ft = FindWeight(finetuned, name);
        const Matrix delta = Sub(*w_ft, *w_base);

        const Matrix compressed =
            config.use_obs ? ObsCompress(delta, x, obs_config)
                           : RtnCompress(delta, obs_config);

        CompressedDeltaLayer layer;
        layer.name = name;
        layer.is_sparse = config.sparse24;
        if (config.sparse24) {
          layer.sparse =
              Sparse24Matrix::Pack(compressed, config.bits, config.group_size);
        } else {
          layer.dense =
              PackedQuantMatrix::Quantize(compressed, config.bits, config.group_size);
        }
        // Reconstruct with exactly what will be served (packed → dequantized).
        Matrix reconstructed = layer.Dequantize();
        reconstructed.AddInPlace(*w_base);
        group_reconstructed[mi] = std::move(reconstructed);
        group_layers[mi] = std::move(layer);
      });
      for (size_t mi = 0; mi < n_members; ++mi) {
        *FindWeight(work, LinearLayerName(li, group.members[mi])) =
            std::move(group_reconstructed[mi]);
        out.layers.push_back(std::move(group_layers[mi]));
      }
    }
  }

  // Uncompressed fp16 deltas for the non-linear parameter groups.
  out.embedding_delta = MatrixDeltaFp16(finetuned.embedding, base.embedding);
  out.lm_head_delta = MatrixDeltaFp16(finetuned.lm_head, base.lm_head);
  out.final_norm_delta = VecDelta(finetuned.final_norm, base.final_norm);
  for (size_t i = 0; i < base.layers.size(); ++i) {
    out.attn_norm_deltas.push_back(
        VecDelta(finetuned.layers[i].attn_norm, base.layers[i].attn_norm));
    out.mlp_norm_deltas.push_back(
        VecDelta(finetuned.layers[i].mlp_norm, base.layers[i].mlp_norm));
  }
  return out;
}

ModelWeights SparseGptCompressModel(const ModelWeights& finetuned,
                                    const std::vector<std::vector<int>>& calibration,
                                    const ObsConfig& config, size_t* linear_bytes) {
  ModelWeights work = finetuned;
  size_t bytes = 0;
  for (int li = 0; li < finetuned.config.n_layers; ++li) {
    for (const LayerGroup& group : BlockGroups()) {
      const std::string capture_name = LinearLayerName(li, group.members.front());
      const Transformer snapshot(work);
      const Matrix x = CaptureLayerInput(snapshot, calibration, capture_name);
      for (const char* member : group.members) {
        const std::string name = LinearLayerName(li, member);
        const Matrix compressed = ObsCompress(*FindWeight(work, name), x, config);
        if (config.prune24) {
          const Sparse24Matrix packed =
              Sparse24Matrix::Pack(compressed, config.bits, config.group_size);
          bytes += packed.ByteSize();
          *FindWeight(work, name) = packed.Dequantize();
        } else {
          const PackedQuantMatrix packed =
              PackedQuantMatrix::Quantize(compressed, config.bits, config.group_size);
          bytes += packed.ByteSize();
          *FindWeight(work, name) = packed.Dequantize();
        }
      }
    }
  }
  if (linear_bytes != nullptr) {
    *linear_bytes = bytes;
  }
  return work;
}

ModelWeights AwqCompressModel(const ModelWeights& finetuned,
                              const std::vector<std::vector<int>>& calibration,
                              const AwqConfig& config, size_t* linear_bytes) {
  ModelWeights work = finetuned;
  size_t bytes = 0;
  for (int li = 0; li < finetuned.config.n_layers; ++li) {
    for (const LayerGroup& group : BlockGroups()) {
      const std::string capture_name = LinearLayerName(li, group.members.front());
      const Transformer snapshot(work);
      const Matrix x = CaptureLayerInput(snapshot, calibration, capture_name);
      for (const char* member : group.members) {
        const std::string name = LinearLayerName(li, member);
        AwqResult result = AwqQuantize(*FindWeight(work, name), x, config);
        bytes += result.stored_bytes;
        *FindWeight(work, name) = std::move(result.weights);
      }
    }
  }
  if (linear_bytes != nullptr) {
    *linear_bytes = bytes;
  }
  return work;
}

}  // namespace dz
