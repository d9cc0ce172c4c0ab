// vLLM+SCB baseline (paper §6.1 "Baselines"): serves each fine-tuned model as an
// independent full-precision model. Supports (S)wapping whole models in and out of GPU
// memory, (C)ontinuous batching across the models resident in memory by looping through
// them each iteration, and (B)atching available requests for the same model. It cannot
// batch across variants and must move full fp16 checkpoints on every swap — the two
// costs DeltaZip removes.
#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "src/serving/engine_core.h"
#include "src/util/check.h"

namespace dz {

namespace {

// The baseline's admission and cost policy for one EngineCore run: a request
// runs only when its whole model is resident, at most one blocking demand swap
// is in flight, and every resident model costs a separate full-precision pass.
// This engine never preempts, so no request is ever re-queued.
struct VllmScbPolicy {
  const EngineConfig& config;
  const ExecModel& exec;
  EngineCore& core;
  // Completion time of the in-flight *demand* swap (-inf when none). Demand swaps
  // sit on the worker's critical path; prefetch transfers do not.
  double demand_ready = -std::numeric_limits<double>::infinity();

  // Optimistic service lower bound for admission control (batch-1 decode after
  // an immediate prefill; real scheduling and swaps only add to it).
  double MinServiceS(PendingReq& p) const {
    if (p.min_service_s < 0.0) {
      const double ctx = static_cast<double>(p.req.prompt_tokens);
      p.min_service_s = exec.PrefillTime(p.req.prompt_tokens) +
                        static_cast<double>(std::max(0, p.req.output_tokens - 1)) *
                            exec.DecodeIterTime(1, ctx);
    }
    return p.min_service_s;
  }

  // Policy order; a request runs only when its model is resident. Returns false
  // while a blocking demand swap holds the worker.
  bool Admit() {
    std::set<int> models_in_use;
    for (const auto& r : core.running) {
      models_in_use.insert(r.state.req.model_id);
    }
    std::vector<int> pinned(models_in_use.begin(), models_in_use.end());

    long long kv_used = core.KvTokensInUse();
    bool load_in_flight = demand_ready > core.now;
    for (auto it = core.queue.begin();
         it != core.queue.end() &&
         static_cast<int>(core.running.size()) < config.max_batch;) {
      const int model = it->req.model_id;
      const long long need = it->req.prompt_tokens + it->req.output_tokens;
      if (kv_used + need > core.kv_capacity_tokens) {
        if (need > core.kv_capacity_tokens) {
          it = core.Park(it);  // larger than the whole KV pool: can never run
          continue;
        }
        break;  // head-of-line blocks on KV space
      }
      if (it->sched_attempt_s < 0.0) {
        it->sched_attempt_s = core.now;
      }
      if (!core.store.IsResident(model, core.now)) {
        // Trigger the swap. The engine worker performs weight loading synchronously
        // (vLLM loads checkpoints in the serving process), so at most one demand swap
        // is in flight and — crucially — that swap sits on the critical path of every
        // running request (paper §2.2 "Swapping incurs high latency"). A model already
        // arriving via prefetch needs no swap: RequestLoad just registers the hit.
        if (core.store.IsLoading(model, core.now)) {
          core.store.RequestLoad(model, core.now, pinned);
        } else if (!load_in_flight) {
          if (core.store.GpuCount(core.now) >= core.store.GpuCapacity() &&
              static_cast<int>(models_in_use.size()) >= core.store.GpuCapacity()) {
            ++it;  // every slot is actively serving; wait for one to drain
            continue;
          }
          const ArtifactStore::LoadResult load =
              core.store.RequestLoad(model, core.now, pinned);
          if (load.ok) {
            demand_ready = load.ready_at;
            load_in_flight = true;
          } else if (load.unavailable) {
            // Typed registry failure: no live holder can source this model.
            // Park the request rather than spin on an unsatisfiable swap.
            it = core.Park(it);
            continue;
          }
        }
        ++it;
        continue;
      }
      it = core.Dispatch(it);
      models_in_use.insert(model);
      pinned.push_back(model);
      kv_used += need;
    }

    // ---- lookahead prefetch: warm the next W distinct waiting models (§8) ----
    // Unlike the demand swap below these transfers are asynchronous, so the worker
    // keeps generating for the models already resident while the next checkpoint
    // travels disk→host→GPU. `pinned` carries every model the running batch uses,
    // so a prefetch can never evict a running model.
    core.Prefetch(config.prefetch, models_in_use, pinned);

    // Blocking demand swap: while a model is being copied in on the critical path,
    // the worker generates nothing. (Prefetch transfers land in the background.)
    if (demand_ready > core.now) {
      core.now = demand_ready;
      return false;
    }
    return true;
  }

  // Loops over the resident models, each a separate full-precision pass.
  double IterationCost() const {
    std::map<int, long long> prefill_tokens_per_model;
    for (const auto* r : core.prefilling) {
      prefill_tokens_per_model[r->state.req.model_id] += r->state.req.prompt_tokens;
    }
    std::map<int, std::pair<int, double>> decode_per_model;  // model → (batch, ctx sum)
    for (const auto& r : core.running) {
      if (r.prefilled) {
        auto& [batch, ctx] = decode_per_model[r.state.req.model_id];
        ++batch;
        ctx += r.state.req.prompt_tokens + r.state.decoded;
      }
    }

    double iter = config.sched_overhead_s;
    for (const auto& [model, tokens] : prefill_tokens_per_model) {
      iter += exec.PrefillTime(tokens);
    }
    for (const auto& [model, batch_ctx] : decode_per_model) {
      iter += exec.DecodeIterTime(batch_ctx.first,
                                   batch_ctx.second / batch_ctx.first);
    }
    return iter;
  }

  void AfterIteration() {}
};

class VllmScbEngine : public ServingEngine {
 public:
  explicit VllmScbEngine(const EngineConfig& config) : config_(config), exec_(config.exec) {}

  const char* name() const override { return "vllm-scb"; }

  ServeReport Serve(const Trace& trace) override;

 private:
  EngineConfig config_;
  ExecModel exec_;
};

ServeReport VllmScbEngine::Serve(const Trace& trace) {
  const size_t total_mem =
      static_cast<size_t>(config_.exec.tp) * config_.exec.gpu.mem_bytes();
  const size_t model_bytes = exec_.BaseWeightBytesPerGpu() * config_.exec.tp;
  // Reserve a KV pool (roughly one model's worth or 15%, whichever is larger).
  const size_t kv_pool =
      std::max(model_bytes / 2, static_cast<size_t>(total_mem * 0.15));
  DZ_CHECK_GT(total_mem, kv_pool + model_bytes);
  const size_t model_budget = total_mem - kv_pool;
  const long long kv_capacity_tokens = static_cast<long long>(
      kv_pool / std::max<size_t>(1, exec_.KvBytesPerTokenPerGpu() * config_.exec.tp));

  ArtifactStoreConfig store_config;
  store_config.artifact_bytes = model_bytes;
  store_config.gpu_budget_bytes = model_budget;
  // vLLM keeps no host-side weight cache: every swap re-runs the checkpoint load path.
  store_config.cpu_budget_bytes = 0;
  store_config.disk_read_s = exec_.LoadFullModelFromDisk();
  store_config.h2d_s = exec_.LoadFullModelFromHost();
  EngineCore core(config_, trace, name(), store_config, kv_capacity_tokens);
  VllmScbPolicy policy{config_, exec_, core};
  return core.Run(policy);
}

}  // namespace

std::unique_ptr<ServingEngine> MakeVllmScbEngine(const EngineConfig& config) {
  return std::make_unique<VllmScbEngine>(config);
}

}  // namespace dz
