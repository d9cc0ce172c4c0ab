#include "src/core/deltazip.h"

#include "src/util/check.h"
#include "src/util/logging.h"

namespace dz {

DeltaZipService::DeltaZipService(Transformer base, const DeltaZipOptions& options)
    : base_(std::move(base)),
      options_(options),
      base_panels_(LinearPanels::Pack(base_.weights())),
      base_overlay_(base_panels_.MakeOverlay()) {}

int DeltaZipService::RegisterFmtModel(const ModelWeights& finetuned,
                                      const std::vector<std::vector<int>>& calibration,
                                      const std::string& name) {
  // DeltaCompress fans per-group layer compression and calibration capture out
  // across ThreadPool::Global(); registration scales with cores (DZ_THREADS
  // overrides) and the artifact is bit-identical for any thread count.
  CompressedDelta delta =
      DeltaCompress(base_.weights(), finetuned, calibration, options_.compress);
  return RegisterCompressedDelta(std::move(delta), name);
}

int DeltaZipService::RegisterCompressedDelta(CompressedDelta delta,
                                             const std::string& name) {
  const int id = static_cast<int>(variants_.size());
  Variant v;
  v.info.id = id;
  v.info.name = name.empty() ? "fmt-variant-" + std::to_string(id) : name;
  v.info.is_lora = false;
  v.delta = std::make_unique<CompressedDelta>(std::move(delta));
  v.host = std::make_unique<Transformer>(v.delta->HostWeights(base_.weights()));
  v.overlay = v.delta->MakeOverlay(base_panels_);
  DZ_LOG(kInfo) << "registered " << v.info.name << ": " << v.delta->layers.size()
                << " compressed layers, " << v.delta->PackedByteSize() << " B packed";
  variants_.push_back(std::move(v));
  return id;
}

int DeltaZipService::RegisterLora(LoraAdapter adapter, const std::string& name) {
  const int id = static_cast<int>(variants_.size());
  Variant v;
  v.info.id = id;
  v.info.name = name.empty() ? "lora-variant-" + std::to_string(id) : name;
  v.info.is_lora = true;
  v.lora = std::make_unique<LoraAdapter>(std::move(adapter));
  v.info.artifact_bytes = v.lora->Fp16ByteSize();
  v.overlay = v.lora->MakeOverlay(base_.weights());
  variants_.push_back(std::move(v));
  return id;
}

VariantInfo DeltaZipService::variant_info(int id) const {
  DZ_CHECK_GE(id, 0);
  DZ_CHECK_LT(id, variant_count());
  const Variant& v = variants_[static_cast<size_t>(id)];
  VariantInfo info = v.info;
  if (!info.is_lora) {
    info.artifact_bytes = v.delta->StoredByteSize();
    info.compression_ratio = static_cast<double>(base_.weights().Fp16ByteSize()) /
                             static_cast<double>(info.artifact_bytes);
  }
  return info;
}

const Transformer& DeltaZipService::host(int id) const {
  DZ_CHECK_GE(id, 0);
  DZ_CHECK_LT(id, variant_count());
  const Variant& v = variants_[static_cast<size_t>(id)];
  return v.info.is_lora ? base_ : *v.host;
}

const CompressedDelta& DeltaZipService::delta(int id) const {
  DZ_CHECK_GE(id, 0);
  DZ_CHECK_LT(id, variant_count());
  DZ_CHECK(!variants_[static_cast<size_t>(id)].info.is_lora);
  return *variants_[static_cast<size_t>(id)].delta;
}

std::vector<int> DeltaZipService::Generate(int variant_id, const std::vector<int>& prompt,
                                           int max_new, int eos_token) const {
  if (variant_id < 0) {
    return base_.GenerateGreedy(prompt, max_new, eos_token, &base_overlay_);
  }
  const Transformer& model = host(variant_id);
  const LinearOverlay& overlay = variants_[static_cast<size_t>(variant_id)].overlay;
  return model.GenerateGreedy(prompt, max_new, eos_token, &overlay);
}

Matrix DeltaZipService::Forward(int variant_id, const std::vector<int>& tokens) const {
  if (variant_id < 0) {
    return base_.Forward(tokens, nullptr, &base_overlay_);
  }
  const Transformer& model = host(variant_id);
  return model.Forward(tokens, nullptr, &variants_[static_cast<size_t>(variant_id)].overlay);
}

ServeReport DeltaZipService::SimulateServing(const Trace& trace,
                                             const EngineConfig& config) const {
  const auto engine = config.artifact == ArtifactKind::kFullModel
                          ? MakeVllmScbEngine(config)
                          : MakeDeltaZipEngine(config);
  return engine->Serve(trace);
}

}  // namespace dz
