// Multi-variant serving traces (paper §6.1 "Workload traces").
//
// The paper drives its serving experiments with LMSys Chatbot-Arena prompts/responses
// and uses Azure serverless-function traces as a proxy for bursty multi-model traffic.
// Neither dataset ships offline, so this module generates statistically matched
// synthetic traces:
//   * kUniform — all variants equally popular,
//   * kZipf    — popularity ∝ 1/rank^α (paper uses α = 1.5),
//   * kAzure   — heavy-tailed popularity with Markov-modulated on/off bursts per model,
//                matching the sporadic/dense invocation patterns in paper Fig. 1.
// Prompt / output lengths follow clamped lognormals fit to LMSys-like conversational
// traffic (~ hundreds of prompt tokens, ~200 output tokens).
#ifndef SRC_WORKLOAD_TRACE_H_
#define SRC_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace dz {

// Service-level objective class a tenant buys for a request. Classes carry
// per-class TTFT/E2E deadlines (SloSpec); the scheduler policies and the
// per-class attainment metrics are keyed on them.
enum class SloClass {
  kInteractive = 0,  // chat-style: tight TTFT, tight E2E
  kStandard = 1,     // default API traffic
  kBatch = 2,        // offline/bulk: loose deadlines, lowest priority
};
inline constexpr int kNumSloClasses = 3;

// Stable CLI/report name ("interactive", "standard", "batch").
const char* SloClassName(SloClass slo);
// Parses the names printed by SloClassName. Returns false on unknown names.
bool ParseSloClass(const std::string& name, SloClass& out);

// Per-class deadlines, in simulated seconds from arrival.
struct SloSpec {
  double ttft_s = 30.0;  // first token due within this
  double e2e_s = 120.0;  // full response due within this
};

// Deadlines for all classes, indexed by SloClass. Defaults follow the paper's
// §6.1 SLO scales: interactive is an order tighter than batch.
struct SloSpecs {
  SloSpec per_class[kNumSloClasses] = {
      {5.0, 60.0},     // kInteractive
      {30.0, 120.0},   // kStandard
      {120.0, 600.0},  // kBatch
  };
  const SloSpec& Of(SloClass slo) const {
    return per_class[static_cast<int>(slo)];
  }
};

struct TraceRequest {
  int id = 0;
  int model_id = 0;       // which fine-tuned variant
  int tenant_id = 0;      // who is asking (0 in single-tenant traces)
  SloClass slo = SloClass::kStandard;  // what they were promised
  double arrival_s = 0.0;
  int prompt_tokens = 0;
  int output_tokens = 0;
  // Original arrival of a re-enqueued (crash-rerouted / drain-migrated)
  // request. The cluster fault layer re-offers such requests with arrival_s
  // set to the re-enqueue time (placement and engines require non-decreasing
  // arrivals), but the SLO clock keeps running from the request's first
  // arrival. < 0 (the default) means "never re-enqueued": SloArrival() then
  // equals arrival_s, so plain traces are unaffected. Never serialized —
  // retries exist only inside a cluster run.
  double first_arrival_s = -1.0;

  // The arrival the request's SLO deadlines (and latency metrics) are
  // measured from: the original arrival for re-enqueued requests, arrival_s
  // otherwise.
  double SloArrival() const {
    return first_arrival_s >= 0.0 ? first_arrival_s : arrival_s;
  }
};

struct Trace {
  std::vector<TraceRequest> requests;  // sorted by arrival
  int n_models = 0;
  int n_tenants = 1;
  double duration_s = 0.0;

  // Requests per model (histogram over model ids).
  std::vector<int> ModelCounts() const;
  // Requests per tenant (histogram over tenant ids).
  std::vector<int> TenantCounts() const;
  // True when requests are non-decreasing in arrival time.
  bool IsArrivalSorted() const;
  // DZ_CHECKs the trace invariants every producer must uphold: arrival-sorted,
  // model ids in [0, n_models), tenant ids in [0, n_tenants), valid SLO class,
  // and ids unique. Splitting/merging preserves them.
  void CheckWellFormed() const;
};

enum class PopularityDist {
  kUniform,
  kZipf,
  kAzure,
};

const char* PopularityDistName(PopularityDist dist);

// Multi-tenant traffic shape layered on top of the per-model popularity
// distribution (paper Fig. 1 regime: bursty traffic from many parties with
// different promises). Scenarios modulate each tenant's arrival rate over time:
//   * kSteady     — constant per-tenant rates (tenant split only),
//   * kDiurnal    — all tenants follow a sinusoidal day/night rate curve,
//   * kFlashCrowd — one tenant's rate is boosted `flash_boost`× inside a window
//                   while everyone else stays steady,
//   * kHeavyTail  — steady rates, but tenant shares follow a Zipf over tenant
//                   rank (a few whales, many minnows).
enum class TenantScenario {
  kSteady,
  kDiurnal,
  kFlashCrowd,
  kHeavyTail,
};

// Stable CLI/report name ("steady", "diurnal", "flash-crowd", "heavy-tail").
const char* TenantScenarioName(TenantScenario scenario);
// Parses the names printed by TenantScenarioName. Returns false on unknowns.
bool ParseTenantScenario(const std::string& name, TenantScenario& out);

struct TenantConfig {
  int n_tenants = 1;
  TenantScenario scenario = TenantScenario::kSteady;
  // Tenant share skew: share ∝ 1/(rank+1)^heavy_tail_alpha (0 = equal shares).
  // kHeavyTail defaults it to 1.2 when left at 0 (see EffectiveHeavyTailAlpha).
  double heavy_tail_alpha = 0.0;
  // kDiurnal: rate multiplier 1 + amplitude·sin(2π·t/period), clamped at ≥ 0.
  double diurnal_period_s = 240.0;
  double diurnal_amplitude = 0.8;  // in [0, 1]
  // kFlashCrowd: `flash_tenant`'s rate × flash_boost during
  // [flash_start_frac, flash_start_frac + flash_duration_frac) × duration_s.
  int flash_tenant = 0;
  double flash_start_frac = 0.4;
  double flash_duration_frac = 0.25;
  double flash_boost = 8.0;
  // SLO class mix, identical across tenants: fractions of interactive and batch
  // requests (the rest is standard). Both 0 keeps every request kStandard.
  double interactive_frac = 0.0;
  double batch_frac = 0.0;

  // True when any multi-tenant machinery is active. False (the default) keeps
  // GenerateTrace on the single-tenant code path, bit-identical to the
  // pre-tenant generator (test-enforced).
  bool Enabled() const {
    return n_tenants > 1 || scenario != TenantScenario::kSteady ||
           heavy_tail_alpha > 0.0 || interactive_frac > 0.0 || batch_frac > 0.0;
  }
};

struct TraceConfig {
  int n_models = 32;
  double arrival_rate = 1.0;  // aggregate Poisson rate (req/s), as in §6.1
  double duration_s = 300.0;
  PopularityDist dist = PopularityDist::kZipf;
  double zipf_alpha = 1.5;
  // Azure-like burst parameters.
  double burst_on_mean_s = 20.0;
  double burst_off_mean_s = 60.0;
  double burst_boost = 20.0;  // rate multiplier while a model is bursting
  // Length distributions (lognormal, clamped).
  double prompt_mean_tokens = 160.0;
  double prompt_sigma = 0.8;
  int prompt_max_tokens = 1024;
  double output_mean_tokens = 200.0;
  double output_sigma = 0.7;
  int output_max_tokens = 768;
  uint64_t seed = 0xDECAF;
  // Multi-tenant layering (single tenant, steady, all-standard by default).
  TenantConfig tenants;
};

Trace GenerateTrace(const TraceConfig& config);

// The heavy-tail exponent the generator actually uses: heavy_tail_alpha, or 1.2
// when the kHeavyTail scenario is selected with the exponent left at 0.
double EffectiveHeavyTailAlpha(const TenantConfig& config);

// Expected instantaneous arrival rate (req/s) of `tenant` at time `t` under the
// configured scenario — the envelope the generated trace's per-window counts
// must match (test-enforced within sampling tolerance).
double TenantRateAt(const TraceConfig& config, int tenant, double t);

// Invocation counts per tenant per time window (the tenant-axis sibling of
// InvocationMatrix), for envelope checks and the fairness bench.
std::vector<std::vector<int>> TenantInvocationMatrix(const Trace& trace,
                                                     double window_s);

// Invocation counts per model per time window — regenerates the paper's Fig. 1 view.
std::vector<std::vector<int>> InvocationMatrix(const Trace& trace, double window_s);

// All model ids ordered by descending request count (stable: ties keep id order).
// The head of this list is the "operator-known hot set" used as single-engine
// prefetch warm hints; a cluster derives hints from the router instead.
std::vector<int> ModelsByPopularity(const Trace& trace);
// The k most popular model ids (clamped to n_models).
std::vector<int> ModelsByPopularity(const Trace& trace, int k);

// Splits `trace` into `n_shards` sub-traces; request i goes to shard_of[i]
// (shard_of is aligned with trace.requests and every value is in [0, n_shards)).
// Requests keep their original ids and absolute arrival times, and each shard
// inherits the trace's n_models/duration, so per-shard replay stays on the global
// clock and shard reports can be merged back by id. Relative order is preserved,
// hence every shard is arrival-sorted by construction (checked).
std::vector<Trace> SplitTrace(const Trace& trace, const std::vector<int>& shard_of,
                              int n_shards);

// Merges arrival-sorted shards (as produced by SplitTrace) back into one
// arrival-sorted trace with the original ids untouched. All shards must agree on
// n_models; the merge is stable across shards at equal arrival times.
Trace MergeTraces(const std::vector<Trace>& shards);

}  // namespace dz

#endif  // SRC_WORKLOAD_TRACE_H_
