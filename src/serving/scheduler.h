// Pluggable request-scheduling policies and admission control for the serving
// engines (beyond the paper, which is FCFS-only in §5.4): multi-tenant traffic
// with per-class SLOs needs to decide *which* waiting request to consider first
// and *whether* a request is still worth serving at all.
//
//   * kFcfs     — arrival order (the paper's §5.4 scheduler; the default, and
//                 bit-identical to the pre-scheduler engines, golden-enforced).
//   * kPriority — strict priority by SLO class (interactive > standard >
//                 batch), FCFS within a class.
//   * kDwfq     — deficit-weighted fair queueing across tenants: each request
//                 is stamped with a virtual finish tag, tokens/weight past its
//                 tenant's virtual time, and the queue is served in tag order —
//                 a flooding tenant's tags race ahead while a light tenant's
//                 stay near the global virtual time, so floods cannot starve
//                 other tenants (classic fair-queueing behavior).
//
// Admission control (off by default) sheds requests whose class E2E deadline is
// already unmeetable under an optimistic service estimate, instead of letting
// doomed work consume batch slots and KV memory.
//
// The queue-ordering entry point is a template over any element exposing
// `.req` (TraceRequest) and `.fair_tag` (double, < 0 until the scheduler
// assigns one); the engines order their EngineCore queue with it.
#ifndef SRC_SERVING_SCHEDULER_H_
#define SRC_SERVING_SCHEDULER_H_

#include <algorithm>
#include <map>
#include <string>

#include "src/workload/trace.h"

namespace dz {

enum class SchedPolicy {
  kFcfs,
  kPriority,
  kDwfq,
};

// Stable CLI/report name of a policy ("fcfs", "priority", "dwfq").
const char* SchedPolicyName(SchedPolicy policy);
// Parses the names printed by SchedPolicyName. Returns false on unknown names.
bool ParseSchedPolicy(const std::string& name, SchedPolicy& out);

struct SchedulerConfig {
  SchedPolicy policy = SchedPolicy::kFcfs;
  // kDwfq class weights (interactive, standard, batch): a token of interactive
  // work advances its tenant's virtual time 4× slower than a batch token, so
  // interactive requests sort earlier at equal backlog.
  double class_weight[kNumSloClasses] = {4.0, 2.0, 1.0};
  // Shed requests whose class E2E deadline is already unmeetable even under an
  // optimistic service estimate (scaled by admission_headroom; > 1 sheds more
  // aggressively). Shed requests complete nothing and are counted per class.
  bool admission_control = false;
  double admission_headroom = 1.0;
  // Let blocked interactive requests preempt running batch-class skippers,
  // reusing the parent-finish preemption machinery (DeltaZip engine only — the
  // vLLM baseline has no skippers to preempt). Honored only under kPriority /
  // kDwfq: FCFS re-sorts the evicted (earlier-arrival) skipper ahead of the
  // interactive request it was evicted for, which would livelock admit/evict.
  bool class_preemption = false;
  // Per-class deadlines used for admission control (and copied into the report
  // for per-class attainment).
  SloSpecs slo;
};

// Per-tenant virtual-time state for kDwfq. Persists across scheduling rounds
// inside one Serve() call; a fresh engine run starts from zero, keeping runs
// deterministic.
class FairQueue {
 public:
  explicit FairQueue(const SchedulerConfig& config) : config_(config) {}

  // Stamps a newly queued request: its virtual finish tag is tokens/weight past
  // its tenant's virtual time, floored at the global virtual time so an idle
  // tenant re-enters at "now" rather than cashing in banked credit.
  double TagFor(const TraceRequest& req) {
    const double weight =
        std::max(config_.class_weight[static_cast<int>(req.slo)], 1e-9);
    const double cost =
        static_cast<double>(req.prompt_tokens + req.output_tokens) / weight;
    double& tenant_vtime = tenant_vtime_[req.tenant_id];
    const double tag = std::max(tenant_vtime, global_vtime_) + cost;
    tenant_vtime = tag;
    return tag;
  }

  // Advances the global virtual time to the tag of an admitted request.
  void OnAdmit(double tag) { global_vtime_ = std::max(global_vtime_, tag); }

  // Refunds a shed request's virtual-time charge for the `unserved_tokens` it
  // will never receive (a preempted request that already decoded part of its
  // output keeps being charged for the served part — the tenant consumed that
  // GPU time). Leaving the full charge in place would deprioritize the
  // tenant's surviving traffic — the opposite of fair queueing. (Going below
  // the global virtual time is harmless: TagFor floors the next start at
  // global_vtime_, so no credit can be banked.)
  void OnShed(const TraceRequest& req, int unserved_tokens) {
    const double weight =
        std::max(config_.class_weight[static_cast<int>(req.slo)], 1e-9);
    const auto it = tenant_vtime_.find(req.tenant_id);
    if (it != tenant_vtime_.end()) {
      it->second -= static_cast<double>(std::max(0, unserved_tokens)) / weight;
    }
  }

 private:
  SchedulerConfig config_;
  double global_vtime_ = 0.0;
  std::map<int, double> tenant_vtime_;  // tenant id → virtual time
};

// Reorders the engine's waiting queue into this round's admission-consideration
// order. kFcfs is exactly the pre-scheduler stable sort by arrival, so
// default-config runs are bit-identical (golden-enforced); the other policies
// stable-sort on their keys, so ties preserve arrival order.
template <typename Queue>
void OrderQueueForPolicy(const SchedulerConfig& config, FairQueue& fair_queue,
                         Queue& queue) {
  switch (config.policy) {
    case SchedPolicy::kFcfs:
      std::stable_sort(queue.begin(), queue.end(),
                       [](const auto& a, const auto& b) {
                         return a.req.arrival_s < b.req.arrival_s;
                       });
      break;
    case SchedPolicy::kPriority:
      // SloClass values are already priority-ranked (interactive = 0 first).
      std::stable_sort(queue.begin(), queue.end(),
                       [](const auto& a, const auto& b) {
                         if (a.req.slo != b.req.slo) {
                           return static_cast<int>(a.req.slo) <
                                  static_cast<int>(b.req.slo);
                         }
                         return a.req.arrival_s < b.req.arrival_s;
                       });
      break;
    case SchedPolicy::kDwfq:
      // New arrivals sit untagged at the back in arrival order; stamp them in
      // that order, then serve by virtual finish tag. Re-queued (preempted)
      // requests keep their original tag — their service was already charged.
      for (auto& pending : queue) {
        if (pending.fair_tag < 0.0) {
          pending.fair_tag = fair_queue.TagFor(pending.req);
        }
      }
      std::stable_sort(queue.begin(), queue.end(),
                       [](const auto& a, const auto& b) {
                         return a.fair_tag < b.fair_tag;
                       });
      break;
  }
}

// True when the request's class E2E deadline can no longer be met, even if the
// engine served it immediately at the optimistic service estimate. The
// deadline is anchored at SloArrival(): a re-enqueued (crash-rerouted)
// request has already burned queue time between its original arrival and the
// re-enqueue, and anchoring at the re-enqueue arrival_s would ignore that
// elapsed time and over-admit doomed post-crash retries (regression-tested).
inline bool DeadlineUnmeetable(const SchedulerConfig& config, const TraceRequest& req,
                               double now, double optimistic_service_s) {
  const SloSpec& spec = config.slo.Of(req.slo);
  return now + config.admission_headroom * optimistic_service_s >
         req.SloArrival() + spec.e2e_s;
}

}  // namespace dz

#endif  // SRC_SERVING_SCHEDULER_H_
