// The engine loop both serving engines share (paper §5, §6.1). DeltaZip and the
// vLLM-SCB baseline differ only in what they admit each round and in what one
// iteration costs, so each engine is a policy (in its .cc file) over one
// EngineCore, which owns the queue, the running batch, the clock, the run's
// metrics registry, trace recorder and ArtifactStore, and the report.
#ifndef SRC_SERVING_ENGINE_CORE_H_
#define SRC_SERVING_ENGINE_CORE_H_

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/obs/trace_recorder.h"
#include "src/serving/artifact_store.h"
#include "src/serving/engine.h"
#include "src/serving/report.h"
#include "src/serving/scheduler.h"
#include "src/util/check.h"
#include "src/workload/trace.h"

namespace dz {

// A request outside the running batch: waiting, or preempted with its progress
// banked (a resumed request restores its KV instead of re-running prefill).
struct PendingReq {
  TraceRequest req;
  double sched_attempt_s = -1.0;  // first time the scheduler considered it
  double fair_tag = -1.0;         // DWFQ virtual finish tag (kept across preemption)
  double min_service_s = -1.0;    // cached optimistic service estimate (admission)
  int decoded = 0;                // > 0 for resumed (preempted) requests
  bool has_first_token = false;
  double first_token_s = 0.0;
  double start_s = -1.0;
  int preemptions = 0;
};

struct RunningReq {
  PendingReq state;
  bool prefilled = false;   // resumed requests skip prefill (KV restored instead)
  bool needs_kv_restore = false;
  bool is_skipper = false;
  int parent_id = -1;  // request id of the parent (for preemption)
};

class EngineCore {
 public:
  // `store_config` carries the policy's artifact size, GPU/CPU budgets and load
  // times; the core adds the outage and registry fields of `config`.
  // `kv_capacity_tokens` is the KV pool the policy's memory budget leaves.
  EngineCore(const EngineConfig& config, const Trace& trace, const char* engine_name,
             ArtifactStoreConfig store_config, long long kv_capacity_tokens);

  // Replays the trace under `policy`, whose hooks are `MinServiceS(PendingReq&)`
  // (optimistic service estimate for admission control), `Admit()` (moves queued
  // requests into `running`; false ends the round without an iteration, the
  // policy having moved `now`), `IterationCost()` (seconds of this round's
  // iteration, sched overhead included) and `AfterIteration()`.
  template <typename Policy>
  ServeReport Run(Policy& policy);

  // Request-attributed trace event (one branch when tracing is off). kv.swap is
  // the only request event that occupies a channel (KV pages over PCIe).
  void EmitReq(TraceEventType type, double ts, const TraceRequest& req,
               double dur = 0.0, int aux = 0);
  // KV tokens the running batch reserves (prompt + full output per request).
  long long KvTokensInUse() const;
  // Moves a queued request to the parked list: its artifact cannot be sourced
  // (every registry holder dead) or it is larger than the whole KV pool. Parked
  // requests carry as unfinished on halted runs and fail typed (`unavailable`)
  // on natural ones. Returns the iterator past the erased element.
  std::deque<PendingReq>::iterator Park(std::deque<PendingReq>::iterator it) {
    parked_.push_back(*it);
    return queue.erase(it);
  }
  // Moves a queued request whose artifact is resident into the running batch
  // (a resumed one keeps its progress and restores its KV). Returns the
  // iterator past the erased element; the new entry is `running.back()`.
  std::deque<PendingReq>::iterator Dispatch(std::deque<PendingReq>::iterator it);
  // One scheduling round of the lookahead prefetch pass (paper §8 /
  // MetaSys-style pipelining): scans the still-waiting `queue` and issues
  // low-priority loads for the next `prefetch.lookahead` distinct variants, then
  // drains leftover warm hints. No-op unless `prefetch.enabled`.
  // `active` holds the variants the scheduler already owns (running, claimed, or
  // admitted this round) — they are skipped as targets; `pinned` holds the
  // artifact ids a prefetch must never evict (the running batch's artifacts).
  // Additionally, the variants inside the speculation window (the first
  // `lookahead` distinct waiting variants) are shielded from prefetch eviction:
  // a near-head request can be resident-but-blocked (KV or batch-slot limits),
  // and evicting its artifact for a speculation would re-pay the very load the
  // blocked request was about to skip (priority inversion). The shield is
  // deliberately window-bounded — protecting every queued variant would starve
  // the prefetcher of eviction candidates under contention.
  void Prefetch(const PrefetchConfig& prefetch, const std::set<int>& active,
                const std::vector<int>& pinned);
  // Re-queues a preempted request; the next round restores policy order.
  void Requeue(const PendingReq& p) {
    queue.push_back(p);
    requeued_ = true;
  }

  const EngineConfig& config;
  const Trace& trace;
  MetricsRegistry registry;
  // Before the store: the store emits per-channel transfer spans into it. Pure
  // observation — no emission feeds back into scheduling, so traced runs stay
  // bit-identical to untraced ones (golden-enforced).
  TraceRecorder recorder;
  ArtifactStore store;
  FairQueue fair_queue;
  const long long kv_capacity_tokens;
  double now;
  std::deque<PendingReq> queue;
  std::vector<RunningReq> running;
  std::vector<RunningReq*> prefilling;  // this round's prefills
  long long prefill_tokens = 0;         // their prompt tokens
  std::vector<int> finished_parents;    // non-skippers this round finished

 private:
  bool Outstanding() const {
    return report_.records.size() + shed_total_ + parked_.size() <
           trace.requests.size();
  }
  // Advances the clock by `iter` and applies the iteration: first tokens,
  // decode steps and completion records.
  void ApplyIteration(double iter);
  ServeReport Finish();

  ServeReport report_;
  std::vector<PendingReq> parked_;
  std::deque<int> pending_hints_;  // warm hints not yet prefetched
  size_t next_arrival_ = 0;
  size_t shed_total_ = 0;  // loop control only; per-class counts live in the registry
  double next_snapshot_s_;
  bool requeued_ = false;  // a preempted request was re-queued since the last sort
  Counter* shed_count_[kNumSloClasses];
  Counter* completed_count_[kNumSloClasses];
  LogHistogram* e2e_hist_[kNumSloClasses];
  LogHistogram* ttft_hist_[kNumSloClasses];
  LogHistogram* queue_hist_;
  LogHistogram* load_hist_;
  Counter* tokens_out_;
  Counter* tokens_prompt_;
  Counter* rounds_count_;
};

template <typename Policy>
ServeReport EngineCore::Run(Policy& policy) {
  while (Outstanding()) {
    // Hard halt (elastic cluster epoch boundary / crash): stop scheduling.
    // Checked only here, so completions of the iteration in flight when the
    // clock crossed halt_s have already landed (documented approximation).
    if (now >= config.halt_s) {
      break;
    }
    // In-run timeline: sample the registry on the simulated clock. Pure reads —
    // scheduling below is untouched, so any interval stays bit-identical.
    while (config.metrics.interval_s > 0.0 && now >= next_snapshot_s_) {
      report_.timeline.push_back(registry.Snapshot(next_snapshot_s_));
      next_snapshot_s_ += config.metrics.interval_s;
    }
    rounds_count_->Inc();
    bool ingested = false;
    while (next_arrival_ < trace.requests.size() &&
           trace.requests[next_arrival_].arrival_s <= now) {
      PendingReq p;
      p.req = trace.requests[next_arrival_++];
      EmitReq(TraceEventType::kRequestQueued, p.req.arrival_s, p.req);
      queue.push_back(p);
      ingested = true;
    }
    // Policy order doubles as the re-sort of preempted re-queued requests. The
    // queue stays in policy order between rounds (removals keep it), so the
    // stable sort is the identity unless requests were appended since — and
    // under kFcfs, unless a re-queued one broke the arrival order.
    if (requeued_ || (ingested && config.scheduler.policy != SchedPolicy::kFcfs)) {
      OrderQueueForPolicy(config.scheduler, fair_queue, queue);
      requeued_ = false;
    }

    // ---- admission control: shed requests whose deadline is already lost ----
    // A shed request completes nothing; its tenant's DWFQ virtual time is
    // refunded for the tokens it will now never receive.
    for (auto it = queue.begin();
         config.scheduler.admission_control && it != queue.end();) {
      if (!DeadlineUnmeetable(config.scheduler, it->req, now, policy.MinServiceS(*it))) {
        ++it;
        continue;
      }
      if (config.scheduler.policy == SchedPolicy::kDwfq && it->fair_tag >= 0.0) {
        // A resumed request already received prefill + `decoded` tokens.
        fair_queue.OnShed(it->req, it->decoded > 0
                                       ? it->req.output_tokens - it->decoded
                                       : it->req.prompt_tokens + it->req.output_tokens);
      }
      shed_count_[static_cast<int>(it->req.slo)]->Inc();
      ++shed_total_;
      EmitReq(TraceEventType::kAdmissionShed, now, it->req);
      it = queue.erase(it);
    }
    if (!Outstanding()) {
      break;  // shedding retired the last outstanding requests: nothing left to
              // simulate, and the idle fast-forward below would have no event
    }

    if (!policy.Admit()) {
      continue;
    }
    if (running.empty()) {
      // Admission may have parked the last outstanding requests: nothing is
      // left to simulate, and the idle fast-forward would have no future event.
      if (!Outstanding()) {
        break;
      }
      // Idle: jump to the next arrival or artifact-load completion.
      double next_t = std::numeric_limits<double>::infinity();
      if (next_arrival_ < trace.requests.size()) {
        next_t = trace.requests[next_arrival_].arrival_s;
      }
      next_t = std::min(next_t, store.NextLoadReady(now));
      DZ_CHECK(next_t < std::numeric_limits<double>::infinity());
      now = std::max(now, next_t);
      continue;
    }

    // ---- one continuous-batching iteration ----
    // The round's first prefill is always taken, so a prompt longer than the
    // whole budget is still served (alone) instead of waiting forever.
    prefilling.clear();
    prefill_tokens = 0;
    for (auto& r : running) {
      if (!r.prefilled &&
          (prefilling.empty() ||
           prefill_tokens + r.state.req.prompt_tokens <= config.max_prefill_tokens)) {
        prefill_tokens += r.state.req.prompt_tokens;
        prefilling.push_back(&r);
      }
    }
    ApplyIteration(policy.IterationCost());
    policy.AfterIteration();
  }
  return Finish();
}

}  // namespace dz

#endif  // SRC_SERVING_ENGINE_CORE_H_
