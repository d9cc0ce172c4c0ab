#include "src/serving/engine_core.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "src/util/check.h"

namespace dz {

namespace {

ArtifactStoreConfig WithWorkerFields(ArtifactStoreConfig store_config,
                                     const EngineConfig& config) {
  store_config.outages = config.outages;
  store_config.registry = config.registry;
  store_config.registry_node = config.registry_node;
  store_config.registry_warm = config.registry_warm;
  return store_config;
}

}  // namespace

// One registry per engine run (share-nothing: cluster workers run Serve on
// parallel threads, and snapshots merge at the cluster layer instead). Every
// stat of this run lives here; the ServeReport scalar fields are materialized
// from the final snapshot by FinalizeServeMetrics.
EngineCore::EngineCore(const EngineConfig& config, const Trace& trace,
                       const char* engine_name, ArtifactStoreConfig store_config,
                       long long kv_capacity_tokens)
    : config(config),
      trace(trace),
      recorder(config.tracing),
      store(WithWorkerFields(std::move(store_config), config), trace.n_models, &registry,
            &recorder),
      fair_queue(config.scheduler),
      kv_capacity_tokens(kv_capacity_tokens),
      now(config.start_s),
      next_snapshot_s_(config.start_s + config.metrics.interval_s) {
  DZ_CHECK_GE(store.GpuCapacity(), 1);
  // Placement-aware warm-up: the router's predicted variants (valid ids only,
  // capped at the store's GPU capacity), drained one low-priority transfer at
  // a time as the channels go idle from t = 0, so a worker's expected artifacts
  // are warm by the time their requests arrive.
  if (config.prefetch.enabled) {
    for (int hint : config.prefetch.warm_hints) {
      if (static_cast<int>(pending_hints_.size()) >= store.GpuCapacity()) {
        break;
      }
      if (hint >= 0 && hint < trace.n_models) {
        pending_hints_.push_back(hint);
      }
    }
  }
  report_.engine_name = engine_name;
  for (int c = 0; c < kNumSloClasses; ++c) {
    const MetricLabels by_class = {
        {"class", SloClassName(static_cast<SloClass>(c))}};
    shed_count_[c] = registry.GetCounter("sched.shed", by_class);
    completed_count_[c] = registry.GetCounter("engine.requests.completed", by_class);
    e2e_hist_[c] = registry.GetHistogram("latency.e2e_s", by_class);
    ttft_hist_[c] = registry.GetHistogram("latency.ttft_s", by_class);
  }
  queue_hist_ = registry.GetHistogram("latency.queue_s");
  load_hist_ = registry.GetHistogram("latency.load_s");
  tokens_out_ = registry.GetCounter("engine.tokens.output");
  tokens_prompt_ = registry.GetCounter("engine.tokens.prompt");
  rounds_count_ = registry.GetCounter("engine.rounds");
}

void EngineCore::EmitReq(TraceEventType type, double ts, const TraceRequest& req,
                         double dur, int aux) {
  if (!recorder.enabled()) {
    return;
  }
  TraceEvent ev;
  ev.type = type;
  ev.ts_s = ts;
  ev.dur_s = dur;
  ev.request_id = req.id;
  ev.model_id = req.model_id;
  ev.tenant_id = req.tenant_id;
  ev.slo = req.slo;
  ev.aux = aux;
  if (type == TraceEventType::kKvSwap) {
    ev.channel = TraceChannel::kPcie;
  }
  recorder.Emit(ev);
}

long long EngineCore::KvTokensInUse() const {
  long long total = 0;
  for (const auto& r : running) {
    total += r.state.req.prompt_tokens + r.state.req.output_tokens;
  }
  return total;
}

std::deque<PendingReq>::iterator EngineCore::Dispatch(
    std::deque<PendingReq>::iterator it) {
  store.Touch(it->req.model_id, now);
  EmitReq(TraceEventType::kSchedDispatch, now, it->req);
  if (config.scheduler.policy == SchedPolicy::kDwfq) {
    fair_queue.OnAdmit(it->fair_tag);
  }
  RunningReq r;
  r.state = *it;
  r.state.start_s = r.state.start_s < 0.0 ? now : r.state.start_s;
  r.prefilled = r.state.decoded > 0;  // resumed requests keep their progress
  r.needs_kv_restore = r.state.decoded > 0;
  running.push_back(std::move(r));
  return queue.erase(it);
}

void EngineCore::Prefetch(const PrefetchConfig& prefetch, const std::set<int>& active,
                          const std::vector<int>& pinned) {
  if (!prefetch.enabled) {
    return;
  }
  // The shield window mirrors the issue loop exactly (first `lookahead`
  // distinct non-active variants), so no prefetch target sits beyond it.
  std::set<int> protect_set(pinned.begin(), pinned.end());
  std::set<int> window;
  for (const auto& waiting : queue) {
    if (static_cast<int>(window.size()) >= prefetch.lookahead) {
      break;
    }
    const int variant = waiting.req.model_id;
    if (active.count(variant) > 0) {
      continue;
    }
    if (window.insert(variant).second) {
      protect_set.insert(variant);
    }
  }
  const std::vector<int> protect(protect_set.begin(), protect_set.end());
  std::set<int> considered;
  for (const auto& waiting : queue) {
    if (static_cast<int>(considered.size()) >= prefetch.lookahead) {
      break;
    }
    const int variant = waiting.req.model_id;
    if (active.count(variant) > 0 || !considered.insert(variant).second) {
      continue;
    }
    if (!store.IsResident(variant, now) && !store.IsLoading(variant, now)) {
      store.Prefetch(variant, now, protect);
    }
  }
  // Queued variants took priority; leftover warm hints use what is left of the
  // idle channel time.
  while (!pending_hints_.empty()) {
    const int hint = pending_hints_.front();
    if (store.IsResident(hint, now) || store.IsLoading(hint, now) ||
        considered.count(hint) > 0) {
      pending_hints_.pop_front();  // already warm (or just attempted)
      continue;
    }
    if (!store.Prefetch(hint, now, protect).ok) {
      break;  // channel busy or no evictable slot: retry next round
    }
    pending_hints_.pop_front();
  }
}

void EngineCore::ApplyIteration(double iter) {
  if (config.speed_factor != 1.0) {
    iter /= config.speed_factor;  // slow-node fault: everything stretches
  }
  if (recorder.enabled()) {
    TraceEvent round;
    round.type = TraceEventType::kBatchRound;
    round.ts_s = now;
    round.dur_s = iter;
    round.aux = static_cast<int>(running.size());
    recorder.Emit(round);
  }
  now += iter;

  // Decode steps first: the requests prefilling this iteration are not yet
  // marked prefilled, and their prefill emits their first token.
  for (auto& r : running) {
    if (r.prefilled) {
      r.state.decoded += 1;
    }
  }
  for (auto* r : prefilling) {
    r->prefilled = true;
    r->state.decoded = 1;
    if (!r->state.has_first_token) {
      r->state.has_first_token = true;
      r->state.first_token_s = now;
      EmitReq(TraceEventType::kRequestFirstToken, now, r->state.req);
    }
  }
  finished_parents.clear();
  for (auto it = running.begin(); it != running.end();) {
    if (!it->prefilled || it->state.decoded < it->state.req.output_tokens) {
      ++it;
      continue;
    }
    const PendingReq& s = it->state;
    RequestRecord rec;
    rec.id = s.req.id;
    rec.model_id = s.req.model_id;
    rec.tenant_id = s.req.tenant_id;
    rec.slo = s.req.slo;
    rec.prompt_tokens = s.req.prompt_tokens;
    rec.output_tokens = s.req.output_tokens;
    // Latency/SLO clocks run from the original arrival for re-enqueued
    // (crash-rerouted) requests; identical to arrival_s on plain traces.
    rec.arrival_s = s.req.SloArrival();
    rec.sched_attempt_s = s.sched_attempt_s < 0 ? s.req.arrival_s : s.sched_attempt_s;
    rec.start_s = s.start_s;
    rec.first_token_s = s.first_token_s;
    rec.finish_s = now;
    rec.preemptions = s.preemptions;
    const int cls = static_cast<int>(rec.slo);
    completed_count_[cls]->Inc();
    e2e_hist_[cls]->Record(rec.E2eLatency());
    ttft_hist_[cls]->Record(rec.Ttft());
    queue_hist_->Record(rec.QueueingTime());
    load_hist_->Record(rec.LoadingTime());
    tokens_out_->Inc(static_cast<double>(rec.output_tokens));
    tokens_prompt_->Inc(static_cast<double>(rec.prompt_tokens));
    report_.records.push_back(rec);
    EmitReq(TraceEventType::kRequestDone, now, s.req);
    if (!it->is_skipper) {
      finished_parents.push_back(s.req.id);
    }
    it = running.erase(it);
  }
}

ServeReport EngineCore::Finish() {
  // Requests the halt cut off: still queued, still running (their partial
  // progress is lost — the elastic layer re-serves them from scratch), and
  // never-arrived trace requests. All three sets are empty on a natural run.
  for (const auto& p : queue) {
    report_.unfinished.push_back(p.req);
  }
  for (const auto& r : running) {
    report_.unfinished.push_back(r.state.req);
  }
  for (size_t i = next_arrival_; i < trace.requests.size(); ++i) {
    report_.unfinished.push_back(trace.requests[i]);
  }
  // Parked requests: on a halted (epoch) run the next epoch may see recovered
  // holders or completed repairs, so they carry as unfinished; a natural run
  // declares them terminally unavailable (typed, never silent).
  const bool halted = config.halt_s < std::numeric_limits<double>::infinity();
  for (const auto& p : parked_) {
    (halted ? report_.unfinished : report_.unavailable).push_back(p.req);
  }
  if (config.registry != nullptr) {
    report_.cached_artifacts = store.LocallyCached();
  }

  for (const auto& r : report_.records) {
    report_.makespan_s = std::max(report_.makespan_s, r.finish_s);
  }
  report_.n_tenants = std::max(1, trace.n_tenants);
  report_.slo_spec = config.scheduler.slo;
  FinalizeServeMetrics(registry, report_);
  if (recorder.enabled()) {
    report_.trace_events = recorder.Drain();
    report_.trace_events_dropped = recorder.dropped();
    report_.path_by_class = BuildClassAttribution(ComputeCriticalPaths(report_));
  }
  return std::move(report_);
}

}  // namespace dz
