// sim_cluster: a closed loop over windows of simulated multi-tenant traffic.
// Each window generates one Azure flash-crowd trace per configuration and
// replays it through an 8-worker delta-affinity cluster in three
// configurations: static DeltaZip, static vLLM-SCB, and DeltaZip under a
// crash/recover fault plan with an erasure(4,2) registry and prefetch. Only the
// simulator layers (workload, serving, cluster, registry) do work here.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "phases.h"
#include "src/cluster/elastic.h"
#include "src/cluster/router.h"
#include "src/util/thread_pool.h"

namespace dzbench {
namespace {

enum Config { kDeltaZip = 0, kVllm = 1, kElastic = 2, kNumConfigs = 3 };
const char* const kConfigNames[kNumConfigs] = {"deltazip", "vllm", "elastic"};

struct SimScale {
  double window_s = 0.0;  // simulated seconds per window
  double rate = 0.0;      // offered req/s
  int fixed_windows = 0;  // companion: this many windows; main: time-budgeted
};

// Five-minute windows let vLLM-SCB's backlog build up; the companion runs
// more, shorter windows so that its median is steady.
SimScale ScaleFor(Scale scale) {
  SimScale s;
  s.rate = 40.0;
  s.window_s = scale == Scale::kMain ? 300.0 : 60.0;
  s.fixed_windows = scale == Scale::kMain ? 0 : 48;
  return s;
}

dz::TraceConfig WindowTrace(const SimScale& s, uint64_t seed, int window) {
  dz::TraceConfig tc;
  tc.n_models = 64;
  tc.arrival_rate = s.rate;
  tc.duration_s = s.window_s;
  tc.dist = dz::PopularityDist::kAzure;
  tc.prompt_mean_tokens = 120.0;
  tc.output_mean_tokens = 60.0;
  tc.output_max_tokens = 240;
  tc.seed = MixSeed(seed, 100 + static_cast<uint64_t>(window));
  tc.tenants.n_tenants = 8;
  tc.tenants.scenario = dz::TenantScenario::kFlashCrowd;
  tc.tenants.interactive_frac = 0.3;
  tc.tenants.batch_frac = 0.2;
  return tc;
}

dz::ClusterConfig MakeConfig(Config which, const SimScale& s) {
  dz::ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = dz::PlacementPolicy::kDeltaAffinity;
  cfg.engine.exec.shape = dz::ModelShape::Llama13B();
  cfg.engine.exec.gpu = dz::GpuSpec::A800();
  cfg.engine.exec.tp = 4;
  cfg.engine.max_concurrent_deltas = 8;
  cfg.engine.scheduler.policy = dz::SchedPolicy::kPriority;
  cfg.engine.scheduler.slo = dz::SloSpecs();
  cfg.vllm_baseline = which == kVllm;
  if (which == kElastic) {
    char spec[128];
    std::snprintf(spec, sizeof(spec), "crash@%.0f:w2,recover@%.0f:w2,detect=2",
                  0.3 * s.window_s, 0.6 * s.window_s);
    const bool faults_ok = dz::ParseFaultPlan(spec, cfg.faults);
    const bool policy_ok = dz::ParseRedundancyPolicy("erasure(4,2)", cfg.registry.redundancy);
    DZ_CHECK(faults_ok && policy_ok);
    cfg.registry.enabled = true;
    cfg.engine.prefetch.enabled = true;
  }
  return cfg;
}

// FNV-1a over bytes.
uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashDouble(double v, uint64_t h) { return Fnv1a(&v, sizeof(v), h); }

// Digest of everything a report says: the merged metrics snapshot, every
// request record and the elastic ledger.
uint64_t Digest(const dz::ClusterReport& rep) {
  const std::string snapshot = rep.merged.metrics.ToJsonLine();
  uint64_t h = Fnv1a(snapshot.data(), snapshot.size());
  for (const dz::RequestRecord& rec : rep.merged.records) {
    const long long ids[3] = {rec.id, rec.model_id, rec.preemptions};
    h = Fnv1a(ids, sizeof(ids), h);
    for (double v : {rec.start_s, rec.first_token_s, rec.finish_s}) {
      h = HashDouble(v, h);
    }
  }
  const long long ledger[5] = {rep.elastic.offered, rep.elastic.completed, rep.elastic.shed,
                               rep.elastic.failed, rep.elastic.retried};
  h = Fnv1a(ledger, sizeof(ledger), h);
  return HashDouble(rep.makespan_s(), h);
}

// completed + shed + failed == offered, from the report's own ledger.
bool Conserves(const dz::ClusterReport& rep, size_t offered) {
  if (rep.elastic.active) {
    return rep.elastic.offered == static_cast<long long>(offered) &&
           rep.elastic.completed + rep.elastic.shed + rep.elastic.failed == rep.elastic.offered &&
           static_cast<long long>(rep.merged.records.size()) == rep.elastic.completed;
  }
  const size_t failed = rep.merged.unavailable.size() + rep.merged.unfinished.size();
  return rep.merged.records.size() + static_cast<size_t>(rep.TotalShed()) + failed == offered;
}

// Requests that met both class deadlines, over requests offered; shed and
// failed requests have no record and count as misses.
long long MetSlo(const dz::ClusterReport& rep) {
  long long met = 0;
  for (const dz::RequestRecord& rec : rep.merged.records) {
    const dz::SloSpec& spec = rep.merged.slo_spec.Of(rec.slo);
    met += rec.Ttft() <= spec.ttft_s && rec.E2eLatency() <= spec.e2e_s ? 1 : 0;
  }
  return met;
}

struct ConfigAcc {
  std::vector<double> req_per_s;  // per window, trace generation included
  double wall_s = 0.0;
  double generate_s = 0.0;
  long long requests = 0;
  long long windows = 0;
  double rounds = 0.0;
  double loads = 0.0;
  dz::LogHistogram queue_hist;
  // Traced runs: Router::Split, per-shard Serve and BuildClusterReport.
  std::vector<double> route_s, engine_s, skew, merge_s;
};

class SimPhase : public Phase {
 public:
  SimPhase(Scale scale, uint64_t seed)
      : scale_(scale), s_(ScaleFor(scale)), seed_(MixSeed(seed, 0x51a)) {}

  const char* name() const override { return "sim_cluster"; }

  // Set-up builds the three configurations and replays the first window of
  // each through the public entry points; the digests are the reference that
  // every later replay of that window must match.
  void Setup() override {
    std::vector<uint64_t> digests;
    for (int c = 0; c < kNumConfigs; ++c) {
      configs_[c] = MakeConfig(static_cast<Config>(c), s_);
      const dz::Trace trace = dz::GenerateTrace(WindowTrace(s_, seed_, 0));
      const dz::ClusterReport rep = c == kElastic ? dz::ServeElastic(configs_[c], trace)
                                                  : dz::Cluster(configs_[c]).Serve(trace);
      digests.push_back(Digest(rep));
    }
    if (!reference_.empty() && reference_ != digests) {
      setup_failures_.push_back("sim_cluster: set-up replays of window 0 differ (nondeterminism)");
    }
    reference_ = digests;
  }

  void Begin(bool traced, double seconds) override {
    traced_ = traced;
    seconds_ = seconds;
    r_ = PhaseResult();
    for (const std::string& f : setup_failures_) {
      r_.Fail(f);
    }
    setup_failures_.clear();
    for (ConfigAcc& a : acc_) {
      a = ConfigAcc();
    }
    offered_dz_ = 0;
    met_dz_ = 0;
    wall_s_ = 0.0;
    cpu_s_ = 0.0;
    window_ = 0;
  }

  void Slice(int k, int slices) override {
    const double cpu0 = CpuS();
    const double t0 = NowS();
    const ScopedSpan root("sim.slice", 0, -1);
    for (;; ++window_) {
      // A time-budgeted pass keeps a cumulative deadline (see pipeline.cc).
      const bool done = s_.fixed_windows > 0
                            ? window_ >= ShareEnd(s_.fixed_windows, k, slices)
                            : wall_s_ + NowS() - t0 >= seconds_ * (k + 1) / slices;
      if (done) {
        break;
      }
      RunWindow(window_);
    }
    wall_s_ += NowS() - t0;
    cpu_s_ += CpuS() - cpu0;
  }

  PhaseResult End(const std::vector<Span>& spans) override {
    PhaseResult r = std::move(r_);
    const ConfigAcc* acc = acc_;
    if (acc[kDeltaZip].windows == 0) {
      r.Fail("sim_cluster: no window completed");
      return r;
    }
    r.e2e["sim_deltazip_req_per_s"] = {Median(acc[kDeltaZip].req_per_s), "req/s"};
    r.e2e["sim_vllm_req_per_s"] = {Median(acc[kVllm].req_per_s), "req/s"};
    r.e2e["sim_elastic_req_per_s"] = {Median(acc[kElastic].req_per_s), "req/s"};
    r.e2e["sim_slo_attainment"] = {static_cast<double>(met_dz_) / offered_dz_, "ratio"};
    char line[256];
    std::snprintf(line, sizeof(line), "%s %s: %lld windows of %.0f simulated s in %.2f s wall",
                  name(), scale_ == Scale::kMain ? "main" : "companion",
                  acc[kDeltaZip].windows, s_.window_s, wall_s_);
    r.notes.push_back(line);
    for (int c = 0; c < kNumConfigs; ++c) {
      std::snprintf(line, sizeof(line),
                    "  %-8s %6lld requests, %.3f s wall (%.3f s generating), %.0f rounds, "
                    "%.0f loads",
                    kConfigNames[c], acc[c].requests, acc[c].wall_s, acc[c].generate_s,
                    acc[c].rounds, acc[c].loads);
      r.notes.push_back(line);
    }
    // Window 0 is replayed in every set-up and every pass and must match this.
    std::snprintf(line, sizeof(line),
                  "  window-0 report digests (input seed %016llx): %016llx %016llx %016llx",
                  static_cast<unsigned long long>(seed_),
                  static_cast<unsigned long long>(reference_[kDeltaZip]),
                  static_cast<unsigned long long>(reference_[kVllm]),
                  static_cast<unsigned long long>(reference_[kElastic]));
    r.notes.push_back(line);

    if (traced_) {
      const auto totals = TotalsByName(spans);
      auto mean_s = [&](const char* n) {
        const auto it = totals.find(n);
        return it == totals.end() ? 0.0 : it->second.total_s / it->second.calls;
      };
      r.layer["workload.generate_s"] = {mean_s("workload.generate"), "s"};
      std::vector<double> route, merge;
      for (int c : {kDeltaZip, kVllm}) {
        route.insert(route.end(), acc[c].route_s.begin(), acc[c].route_s.end());
        merge.insert(merge.end(), acc[c].merge_s.begin(), acc[c].merge_s.end());
        r.layer[std::string("serving.engine_serve_s.") + kConfigNames[c]] = {
            Mean(acc[c].engine_s), "s"};
        r.layer[std::string("serving.worker_skew.") + kConfigNames[c]] = {Mean(acc[c].skew),
                                                                          "ratio"};
      }
      r.layer["cluster.route_s"] = {Mean(route), "s"};
      r.layer["cluster.merge_s"] = {Mean(merge), "s"};
      r.layer["elastic.serve_s"] = {mean_s("elastic.serve"), "s"};
      r.layer["sim.cpu_per_wall"] = {cpu_s_ / wall_s_, "ratio"};
      for (int c = 0; c < kNumConfigs; ++c) {
        const std::string n = kConfigNames[c];
        r.layer["engine.rounds_per_req." + n] = {acc[c].rounds / acc[c].requests, "count"};
        r.layer["latency.queue_s_p99." + n] = {acc[c].queue_hist.Quantile(0.99), "s"};
        r.layer["store.loads_total." + n] = {acc[c].loads / acc[c].windows, "count"};
      }
    }
    return r;
  }

 private:
  void RunWindow(int w) {
    PhaseResult& r = r_;
    ConfigAcc* acc = acc_;
    const ScopedSpan window("sim.window", static_cast<uint64_t>(w));
    for (int c = 0; c < kNumConfigs; ++c) {
      const double c0 = NowS();
      const ScopedSpan config_span("sim.config", static_cast<uint64_t>(w));
      dz::Trace trace;
      {
        const ScopedSpan s("workload.generate", static_cast<uint64_t>(w));
        trace = dz::GenerateTrace(WindowTrace(s_, seed_, w));
      }
      acc[c].generate_s += NowS() - c0;
      dz::ClusterReport rep;
      if (c == kElastic) {
        const ScopedSpan s("elastic.serve", static_cast<uint64_t>(w));
        rep = dz::ServeElastic(configs_[c], trace);
      } else if (traced_) {
        rep = ServeDecomposed(configs_[c], trace, acc[c], static_cast<uint64_t>(w));
      } else {
        rep = dz::Cluster(configs_[c]).Serve(trace);
      }
      const size_t offered = trace.requests.size();
      acc[c].wall_s += NowS() - c0;
      acc[c].req_per_s.push_back(static_cast<double>(offered) / (NowS() - c0));
      ++r.attempted;
      acc[c].requests += static_cast<long long>(offered);
      ++acc[c].windows;
      acc[c].rounds += rep.merged.metrics.Value("engine.rounds");
      acc[c].loads += static_cast<double>(rep.TotalLoads());
      if (const dz::LogHistogram* h = rep.merged.metrics.Hist("latency.queue_s")) {
        acc[c].queue_hist.Merge(*h);
      }
      const std::string where =
          std::string("sim_cluster window ") + std::to_string(w) + " " + kConfigNames[c];
      if (!Conserves(rep, offered)) {
        r.Fail(where + ": completed + shed + failed != offered");
      } else if (w == 0 && Digest(rep) != reference_[static_cast<size_t>(c)]) {
        r.Fail(where + (traced_ && c != kElastic
                            ? ": Router::Split + per-shard Serve + BuildClusterReport does "
                              "not reproduce Cluster::Serve"
                            : ": report differs from the set-up replay of the same seed"));
      }
      if (c == kDeltaZip) {
        offered_dz_ += static_cast<long long>(offered);
        met_dz_ += MetSlo(rep);
      }
    }
  }

  // Cluster::Serve's static path spelled out so each step gets its own span:
  // Router::Split, one engine Serve per shard on the global pool, then
  // BuildClusterReport. Run 0 is checked against the Cluster::Serve digest.
  dz::ClusterReport ServeDecomposed(const dz::ClusterConfig& cfg, const dz::Trace& trace,
                                    ConfigAcc& acc, uint64_t group) {
    const char* engine_span = cfg.vllm_baseline ? "serving.vllm_serve" : "serving.deltazip_serve";
    double t0 = NowS();
    std::vector<dz::Trace> shards;
    {
      const ScopedSpan s("cluster.route", group);
      shards = dz::Router(cfg.placer).Split(trace);
    }
    acc.route_s.push_back(NowS() - t0);
    std::vector<dz::ServeReport> reports(shards.size());
    std::vector<double> shard_s(shards.size(), 0.0);
    const int parent = CurrentSpan();
    t0 = NowS();
    dz::ThreadPool::Global().ForEachTask(shards.size(), [&](size_t gpu) {
      const double s0 = NowS();
      const ScopedSpan s(engine_span, group, parent);
      std::unique_ptr<dz::ServingEngine> engine = cfg.vllm_baseline
                                                      ? dz::MakeVllmScbEngine(cfg.engine)
                                                      : dz::MakeDeltaZipEngine(cfg.engine);
      reports[gpu] = engine->Serve(shards[gpu]);
      shard_s[gpu] = NowS() - s0;
    });
    double sum = 0.0;
    double slowest = 0.0;
    for (double v : shard_s) {
      sum += v;
      slowest = std::max(slowest, v);
    }
    acc.engine_s.push_back(sum);
    acc.skew.push_back(sum > 0.0 ? slowest / (sum / static_cast<double>(shard_s.size())) : 1.0);
    t0 = NowS();
    dz::ClusterReport rep;
    {
      const ScopedSpan s("cluster.merge", group);
      rep = dz::BuildClusterReport(dz::Cluster(cfg).name(), cfg.placer.policy,
                                   std::move(reports));
    }
    acc.merge_s.push_back(NowS() - t0);
    return rep;
  }

  Scale scale_;
  SimScale s_;
  uint64_t seed_;
  dz::ClusterConfig configs_[kNumConfigs];
  std::vector<uint64_t> reference_;
  std::vector<std::string> setup_failures_;
  // The pass in progress.
  bool traced_ = false;
  double seconds_ = 0.0;
  PhaseResult r_;
  ConfigAcc acc_[kNumConfigs];
  long long offered_dz_ = 0;
  long long met_dz_ = 0;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  int window_ = 0;
};

}  // namespace

std::unique_ptr<Phase> MakeSimPhase(Scale scale, uint64_t seed) {
  return std::make_unique<SimPhase>(scale, seed);
}

}  // namespace dzbench
