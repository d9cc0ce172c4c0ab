// DeltaZip serving engine (paper §5): keeps the base model resident, swaps compact
// per-variant artifacts (compressed deltas or LoRA adapters), batches requests across
// variants for the shared base-model GEMMs, and runs the variant-specific computation
// through the SBMM execution model. Scheduling is iteration-level FCFS with
// skip-the-line admission and parent-finish preemption (§5.4).
#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "src/serving/engine_core.h"
#include "src/util/check.h"

namespace dz {

namespace {

// DeltaZip's admission and cost policy for one EngineCore run: skip-the-line
// admission over at most N co-resident variants, class and parent-finish
// preemption, and the shared-base + per-variant SBMM (or SGMV) iteration cost.
struct DeltaZipPolicy {
  const EngineConfig& config;
  const ExecModel& exec;
  EngineCore& core;
  Counter* preempt_count;
  int effective_n;
  PrefetchConfig prefetch;  // off when the budget granted no staging slot
  double pending_swap_s = 0.0;  // accumulated KV swap work for the next iteration

  // Optimistic (lower-bound) service time for admission control: immediate
  // prefill plus every decode step at batch-1 iteration latency. Anything the
  // real schedule adds (queueing, loads, batching) only pushes the finish later,
  // so a deadline this estimate cannot meet is truly unmeetable. Resumed
  // (preempted) requests owe only their remaining tokens — their cache is
  // invalidated at preemption, so banked progress is never double-charged.
  double MinServiceS(PendingReq& p) const {
    if (p.min_service_s < 0.0) {
      const double ctx = static_cast<double>(p.req.prompt_tokens + p.decoded);
      if (p.decoded > 0) {
        // Resumed: KV restore instead of prefill, remaining decode steps only.
        p.min_service_s =
            static_cast<double>(std::max(0, p.req.output_tokens - p.decoded)) *
            exec.DecodeIterTime(1, ctx);
      } else {
        p.min_service_s = exec.PrefillTime(p.req.prompt_tokens) +
                          ArtifactPrefill(p.req.prompt_tokens) +
                          static_cast<double>(std::max(0, p.req.output_tokens - 1)) *
                              exec.DecodeIterTime(1, ctx);
      }
    }
    return p.min_service_s;
  }

  // Policy order + skip-the-line over at most N variants, then class
  // preemption and the lookahead prefetch.
  bool Admit() {
    std::set<int> selected;  // variants used by running requests
    std::map<int, int> parent_of_variant;  // variant → running parent request id
    for (const auto& r : core.running) {
      selected.insert(r.state.req.model_id);
      if (!r.is_skipper) {
        parent_of_variant.emplace(r.state.req.model_id, r.state.req.id);
      }
    }
    std::vector<int> pinned(selected.begin(), selected.end());

    long long kv_used = core.KvTokensInUse();
    for (auto it = core.queue.begin();
         it != core.queue.end() &&
         static_cast<int>(core.running.size()) < config.max_batch;) {
      const int variant = it->req.model_id;
      const bool variant_selected = selected.count(variant) > 0;
      if (!variant_selected && static_cast<int>(selected.size()) >= effective_n) {
        if (!config.skip_the_line) {
          break;  // strict FCFS: head-of-line blocks
        }
        ++it;
        continue;
      }
      const long long need = it->req.prompt_tokens + it->req.output_tokens;
      if (kv_used + need > core.kv_capacity_tokens) {
        if (need > core.kv_capacity_tokens) {
          it = core.Park(it);  // larger than the whole KV pool: can never run
          continue;
        }
        // No KV space: strict FCFS would also block here.
        if (!config.skip_the_line) {
          break;
        }
        ++it;
        continue;
      }
      if (it->sched_attempt_s < 0.0) {
        it->sched_attempt_s = core.now;
      }
      if (!core.store.IsResident(variant, core.now)) {
        const ArtifactStore::LoadResult load =
            core.store.RequestLoad(variant, core.now, pinned);
        if (load.ok) {
          selected.insert(variant);  // the slot is claimed while loading
          pinned.push_back(variant);
        } else if (load.unavailable) {
          // Typed registry failure: no live holder can source this artifact.
          // Park the request — spinning on it every round would starve the
          // idle fast-forward (no future event could ever admit it).
          it = core.Park(it);
          continue;
        }
        // else: no evictable slot right now; retry next scheduling round.
        ++it;
        continue;  // admitted once the artifact lands
      }
      // Admit. The variant's first running request is its parent; later ones
      // skipped the line.
      it = core.Dispatch(it);
      RunningReq& r = core.running.back();
      const auto [parent, first_for_variant] =
          parent_of_variant.emplace(variant, r.state.req.id);
      if (!first_for_variant) {
        r.is_skipper = true;
        r.parent_id = parent->second;
      }
      selected.insert(variant);
      kv_used += need;
    }

    PreemptForInteractive(selected);

    // ---- lookahead prefetch: warm the next W distinct waiting variants (§8) ----
    // Overlaps disk→CPU→GPU artifact movement with the iteration below. The pin
    // set is rebuilt from `selected` (running, claimed, and just-admitted
    // variants), so a prefetch can never evict an artifact the batch references.
    if (prefetch.enabled) {
      core.Prefetch(prefetch, selected, std::vector<int>(selected.begin(), selected.end()));
    }
    return true;
  }

  // One continuous-batching iteration: KV restores of resumed requests, the
  // shared base-model pass, and the per-variant artifact pass.
  double IterationCost() {
    int decode_batch = 0;
    double ctx_sum = 0.0;
    std::vector<int> reqs_per_variant(static_cast<size_t>(core.trace.n_models), 0);
    for (auto& r : core.running) {
      if (r.needs_kv_restore) {
        const double swap_s =
            exec.KvSwapTime(r.state.req.prompt_tokens + r.state.decoded);
        pending_swap_s += swap_s;
        core.EmitReq(TraceEventType::kKvSwap, core.now, r.state.req, swap_s, /*aux=*/1);
        r.needs_kv_restore = false;
      }
      if (r.prefilled) {
        ++decode_batch;
        ctx_sum += r.state.req.prompt_tokens + r.state.decoded;
        ++reqs_per_variant[static_cast<size_t>(r.state.req.model_id)];
      }
    }

    double iter = config.sched_overhead_s + pending_swap_s;
    pending_swap_s = 0.0;
    iter += exec.PrefillTime(core.prefill_tokens) + ArtifactPrefill(core.prefill_tokens);
    if (decode_batch > 0) {
      iter += exec.DecodeIterTime(decode_batch, ctx_sum / decode_batch);
      iter += ArtifactDecodeIter(reqs_per_variant);
    }
    return iter;
  }

  // ---- starvation control: preempt skippers whose parent finished (§5.4) ----
  void AfterIteration() {
    if (!config.preemption || core.finished_parents.empty()) {
      return;
    }
    for (auto it = core.running.begin(); it != core.running.end();) {
      const bool orphaned =
          it->is_skipper &&
          std::find(core.finished_parents.begin(), core.finished_parents.end(),
                    it->parent_id) != core.finished_parents.end();
      const int remaining = it->state.req.output_tokens - it->state.decoded;
      if (orphaned && remaining > config.preempt_min_remaining_tokens) {
        Preempt(*it, /*kv_on_gpu=*/true);
        it = core.running.erase(it);
      } else {
        ++it;
      }
    }
  }

  // ---- class preemption: interactive requests evict batch skippers ----
  // Reuses the parent-finish preemption machinery (KV swap to host, re-queue,
  // resume with restored progress): when interactive requests were considered
  // but left waiting this round, up to that many running batch-class skippers
  // yield their slots. Parents are never preempted — they anchor their
  // variant's batching, and evicting one would orphan its skippers.
  // Class preemption needs a class-aware queue order to make progress: under
  // FCFS the evicted batch skipper (earlier arrival) re-sorts ahead of the
  // blocked interactive request and reclaims the freed slot next round — an
  // admit/evict livelock that burns KV swaps. So the flag is honored only
  // for kPriority/kDwfq (documented in SchedulerConfig).
  void PreemptForInteractive(const std::set<int>& selected) {
    if (!config.scheduler.class_preemption ||
        config.scheduler.policy == SchedPolicy::kFcfs) {
      return;
    }
    // Count only interactive requests a skipper eviction can actually help:
    // those blocked on KV space or batch slots (their variant already holds a
    // slot, or the batch is full). A request blocked on the N-variant cap
    // gains nothing from evicting a skipper — the skipper's variant slot
    // stays pinned by its parent — and preempting for it would just churn
    // admit/evict cycles of KV swaps with no forward progress.
    // A queued interactive request counts as blocked simply by still being
    // queued after the admission loop (under a class-aware order it would
    // have been admitted otherwise) — sched_attempt_s is NOT required, since
    // batch-full rounds skip the admission loop entirely and KV-blocked
    // requests bail before the stamp.
    const bool batch_full = static_cast<int>(core.running.size()) >= config.max_batch;
    int blocked_interactive = 0;
    double min_blocked_tag = std::numeric_limits<double>::infinity();
    for (const auto& p : core.queue) {
      if (p.req.slo == SloClass::kInteractive &&
          (batch_full || selected.count(p.req.model_id) > 0)) {
        ++blocked_interactive;
        min_blocked_tag = std::min(min_blocked_tag, p.fair_tag);
      }
    }
    for (auto it = core.running.begin();
         blocked_interactive > 0 && it != core.running.end();) {
      const int remaining = it->state.req.output_tokens - it->state.decoded;
      // Under kDwfq the evicted skipper keeps its fair tag, so only evict
      // skippers that will re-sort *behind* the blocked interactive request —
      // otherwise the tag-ordered queue hands the freed slot right back to
      // the skipper next round (the same churn the kFcfs gate prevents).
      const bool yields_to_interactive =
          config.scheduler.policy != SchedPolicy::kDwfq ||
          it->state.fair_tag > min_blocked_tag;
      if (it->is_skipper && it->state.req.slo == SloClass::kBatch &&
          yields_to_interactive &&
          remaining > config.preempt_min_remaining_tokens) {
        // Only KV actually materialized on the GPU costs a swap-out: a
        // skipper admitted this round has produced none, and a resumed one
        // whose restore has not run yet still has its state on the host.
        Preempt(*it, it->prefilled && !it->needs_kv_restore);
        it = core.running.erase(it);
        --blocked_interactive;
      } else {
        ++it;
      }
    }
  }

  // Re-queues a running request with its progress banked (it keeps its fair
  // tag). With `kv_on_gpu` its KV is swapped to host; the cost lands on the
  // next iteration. The caller erases it from the running batch.
  void Preempt(const RunningReq& r, bool kv_on_gpu) {
    PendingReq back = r.state;
    ++back.preemptions;
    preempt_count->Inc();
    core.EmitReq(TraceEventType::kKvPreempt, core.now, back.req);
    back.min_service_s = -1.0;  // re-estimate from the banked progress
    if (kv_on_gpu) {
      const double swap_s = exec.KvSwapTime(back.req.prompt_tokens + back.decoded);
      pending_swap_s += swap_s;
      core.EmitReq(TraceEventType::kKvSwap, core.now, back.req, swap_s, /*aux=*/0);
    }
    core.Requeue(back);
  }

  double ArtifactDecodeIter(const std::vector<int>& reqs_per_variant) const {
    return config.artifact == ArtifactKind::kLoraAdapter
               ? exec.LoraDecodeIterTime(reqs_per_variant, config.lora_rank)
               : exec.DeltaDecodeIterTime(reqs_per_variant);
  }

  double ArtifactPrefill(long long tokens) const {
    return config.artifact == ArtifactKind::kLoraAdapter
               ? exec.LoraPrefillTime(tokens, config.lora_rank)
               : exec.DeltaPrefillTime(tokens);
  }
};

class DeltaZipEngine : public ServingEngine {
 public:
  explicit DeltaZipEngine(const EngineConfig& config)
      : config_(config), exec_(config.exec) {
    DZ_CHECK_NE(static_cast<int>(config.artifact),
                static_cast<int>(ArtifactKind::kFullModel));
  }

  const char* name() const override {
    return config_.artifact == ArtifactKind::kLoraAdapter ? "deltazip-lora" : "deltazip";
  }

  ServeReport Serve(const Trace& trace) override;

 private:
  size_t ArtifactBytes() const {
    return config_.artifact == ArtifactKind::kLoraAdapter
               ? exec_.LoraBytesPerGpu(config_.lora_rank)
               : exec_.DeltaBytesPerGpu();
  }

  EngineConfig config_;
  ExecModel exec_;
};

ServeReport DeltaZipEngine::Serve(const Trace& trace) {
  const size_t artifact_bytes = ArtifactBytes();
  const size_t total_mem =
      static_cast<size_t>(config_.exec.tp) * config_.exec.gpu.mem_bytes();
  const size_t reserve =
      static_cast<size_t>(total_mem * config_.kv_reserve_fraction);
  const size_t base_bytes = exec_.BaseWeightBytesPerGpu() * config_.exec.tp;
  DZ_CHECK_GT(total_mem, base_bytes + reserve);
  const size_t after_base = total_mem - base_bytes - reserve;
  // Artifact budget: up to N slots, but always leave a KV floor. On small GPUs the
  // effective number of co-resident deltas is therefore capacity-clamped below the
  // configured N (the same pressure paper Fig. 10 explores). Prefetch staging slots
  // add headroom on top of N — double-buffering space so speculative loads never
  // compete with the running batch's pinned artifacts — paid for out of the KV pool.
  // When the 0.9 cap already clamps the budget, the staging request is (partially)
  // denied, and only the granted slots are later excluded from scheduling.
  const int staging_slots =
      config_.prefetch.enabled ? std::max(0, config_.prefetch.staging_slots) : 0;
  const size_t slot_bytes = artifact_bytes * config_.exec.tp;
  const size_t demand_budget =
      std::min(static_cast<size_t>(after_base * 0.9),
               static_cast<size_t>(config_.max_concurrent_deltas) * slot_bytes);
  const size_t staging_cap =
      std::min(static_cast<size_t>(after_base * 0.9),
               static_cast<size_t>(config_.max_concurrent_deltas + staging_slots) *
                   slot_bytes);
  const int granted_staging = static_cast<int>((staging_cap - demand_budget) / slot_bytes);
  // Whole slots only: a fractional staging remainder would shrink the KV pool
  // without ever fitting an artifact.
  const size_t artifact_budget =
      demand_budget + static_cast<size_t>(granted_staging) * slot_bytes;
  const size_t kv_pool = after_base - artifact_budget;
  const long long kv_capacity_tokens = static_cast<long long>(
      kv_pool / std::max<size_t>(1, exec_.KvBytesPerTokenPerGpu() * config_.exec.tp));

  ArtifactStoreConfig store_config;
  store_config.artifact_bytes = artifact_bytes * config_.exec.tp;
  store_config.gpu_budget_bytes = artifact_budget;
  store_config.cpu_budget_bytes = static_cast<size_t>(config_.cpu_cache_gb * 1e9);
  store_config.disk_read_s = config_.artifact == ArtifactKind::kLoraAdapter
                                 ? exec_.kernels().DiskReadTime(
                                       config_.exec.shape.LoraBytes(config_.lora_rank))
                                 : exec_.LoadDeltaFromDisk();
  store_config.h2d_s = config_.artifact == ArtifactKind::kLoraAdapter
                           ? exec_.LoadLoraFromHost(config_.lora_rank)
                           : exec_.LoadDeltaFromHost();
  EngineCore core(config_, trace, name(), store_config, kv_capacity_tokens);
  // Scheduling concurrency excludes only the staging headroom the budget actually
  // granted: the batch still spans at most N variants, the spare slots stay
  // available for in-flight prefetches, and a memory-clamped budget (no extra
  // slots granted) never costs the scheduler a demand slot.
  const int effective_n =
      std::min(config_.max_concurrent_deltas,
               std::max(1, core.store.GpuCapacity() - granted_staging));
  // Without granted staging headroom (memory-clamped budget), speculation has no
  // memory of its own to live in — every prefetch (lookahead or hint) would have
  // to evict working-set artifacts. Disable it entirely rather than thrash.
  PrefetchConfig effective_prefetch = config_.prefetch;
  if (granted_staging == 0) {
    effective_prefetch.enabled = false;
  }
  DeltaZipPolicy policy{config_, exec_, core,
                        core.registry.GetCounter("engine.preemptions"), effective_n,
                        effective_prefetch};
  return core.Run(policy);
}

}  // namespace

std::unique_ptr<ServingEngine> MakeDeltaZipEngine(const EngineConfig& config) {
  return std::make_unique<DeltaZipEngine>(config);
}

}  // namespace dz
