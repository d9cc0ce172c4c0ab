// Golden regression test for the prefetch-off serving path (ISSUE 3 acceptance):
// with prefetch disabled, both engines and an 8-GPU cluster run must produce
// reports bit-identical to the pre-prefetch implementation. The expected values
// below were captured from the engines as of PR 2 (commit a78d406) on the fixed
// scenarios here; any scheduling, artifact-store, or merge change that shifts a
// single double breaks this test.
#include <cmath>

#include <gtest/gtest.h>

#include "src/cluster/router.h"
#include "src/obs/critical_path.h"
#include "src/tensor/backend.h"
#include "src/serving/engine.h"
#include "src/workload/trace.h"

namespace dz {
namespace {

TraceConfig GoldenTraceConfig() {
  TraceConfig cfg;
  cfg.n_models = 16;
  cfg.arrival_rate = 1.2;
  cfg.duration_s = 90.0;
  cfg.dist = PopularityDist::kAzure;
  cfg.output_mean_tokens = 80.0;
  cfg.output_max_tokens = 250;
  cfg.seed = 404;
  return cfg;
}

EngineConfig GoldenEngineConfig() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_batch = 32;
  cfg.max_concurrent_deltas = 8;
  return cfg;
}

struct GoldenSums {
  double sum_start = 0.0;
  double sum_first = 0.0;
  double sum_finish = 0.0;
};

GoldenSums SumsOf(const ServeReport& r) {
  GoldenSums s;
  for (const auto& rec : r.records) {
    s.sum_start += rec.start_s;
    s.sum_first += rec.first_token_s;
    s.sum_finish += rec.finish_s;
  }
  return s;
}

void ExpectNoPrefetchActivity(const ServeReport& r) {
  EXPECT_EQ(r.prefetch_issued, 0);
  EXPECT_EQ(r.prefetch_hits, 0);
  EXPECT_EQ(r.prefetch_wasted, 0);
  EXPECT_DOUBLE_EQ(r.stall_hidden_s, 0.0);
}

// ISSUE 5 extension: with SchedulerConfig defaults (single tenant, FCFS,
// shedding off) the multi-tenant machinery must leave no trace in the report.
void ExpectNoTenantActivity(const ServeReport& r) {
  EXPECT_EQ(r.TotalShed(), 0);
  EXPECT_EQ(r.n_tenants, 1);
  EXPECT_DOUBLE_EQ(r.JainFairnessIndex(), 1.0);
}

// ISSUE 6 extension: the scalar stat fields are now thin views over the run's
// registry snapshot, so the snapshot must carry exactly the same doubles —
// EXPECT_EQ, not near — and the per-request histograms must cover every record.
void ExpectSnapshotBacksReport(const ServeReport& r) {
  const MetricsSnapshot& m = r.metrics;
  ASSERT_FALSE(m.points.empty());
  EXPECT_EQ(m.sim_time_s, r.makespan_s);
  EXPECT_EQ(m.Value("store.loads.total"), static_cast<double>(r.total_loads));
  EXPECT_EQ(m.Value("store.loads.disk"), static_cast<double>(r.disk_loads));
  EXPECT_EQ(m.Value("store.prefetch.issued"),
            static_cast<double>(r.prefetch_issued));
  EXPECT_EQ(m.Value("store.prefetch.stall_hidden_s"), r.stall_hidden_s);
  EXPECT_EQ(m.Value("store.channel.busy_s", {{"channel", "disk"}}),
            r.disk_busy_s);
  EXPECT_EQ(m.Value("store.channel.busy_s", {{"channel", "pcie"}}),
            r.pcie_busy_s);
  double completed = 0.0;
  long long e2e_samples = 0;
  for (int c = 0; c < kNumSloClasses; ++c) {
    const MetricLabels by_class = {
        {"class", SloClassName(static_cast<SloClass>(c))}};
    completed += m.Value("engine.requests.completed", by_class);
    EXPECT_EQ(m.Value("sched.shed", by_class),
              static_cast<double>(r.shed_by_class[static_cast<size_t>(c)]));
    const LogHistogram* h = m.Hist("latency.e2e_s", by_class);
    ASSERT_NE(h, nullptr);
    e2e_samples += h->count();
  }
  EXPECT_EQ(completed, static_cast<double>(r.records.size()));
  EXPECT_EQ(e2e_samples, static_cast<long long>(r.records.size()));
  const LogHistogram* queue_h = m.Hist("latency.queue_s");
  ASSERT_NE(queue_h, nullptr);
  EXPECT_EQ(queue_h->count(), static_cast<long long>(r.records.size()));
}

// PR 7: enabling tracing must not move a single double (pure observation),
// and every request's critical-path segments must sum back to its measured
// E2E/TTFT latency within 1e-9 via the full event-derived chain.
void ExpectExactAttribution(const ServeReport& r) {
  ASSERT_FALSE(r.trace_events.empty());
  EXPECT_EQ(r.trace_events_dropped, 0);  // full-trace mode drops nothing
  EXPECT_TRUE(r.HasPathAttribution());
  const std::vector<RequestPathBreakdown> breakdowns = ComputeCriticalPaths(r);
  ASSERT_EQ(breakdowns.size(), r.records.size());
  for (size_t i = 0; i < breakdowns.size(); ++i) {
    const RequestPathBreakdown& b = breakdowns[i];
    const RequestRecord& rec = r.records[i];
    EXPECT_EQ(b.id, rec.id);
    EXPECT_TRUE(b.complete) << "request " << rec.id
                            << " fell back to the record-only split";
    EXPECT_LE(std::abs(b.e2e.Sum() - rec.E2eLatency()), 1e-9)
        << "request " << rec.id;
    EXPECT_LE(std::abs(b.ttft.Sum() - rec.Ttft()), 1e-9) << "request " << rec.id;
  }
  // The report's embedded per-class table is exactly the rollup of these
  // breakdowns.
  const ClassPathAttribution by_class = BuildClassAttribution(breakdowns);
  long long n = 0;
  for (int c = 0; c < kNumSloClasses; ++c) {
    const PathAttribution& got = r.path_by_class[static_cast<size_t>(c)];
    const PathAttribution& want = by_class[static_cast<size_t>(c)];
    EXPECT_EQ(got.n, want.n);
    EXPECT_EQ(got.incomplete, 0);
    EXPECT_DOUBLE_EQ(got.e2e.Sum(), want.e2e.Sum());
    EXPECT_DOUBLE_EQ(got.ttft.Sum(), want.ttft.Sum());
    n += got.n;
  }
  EXPECT_EQ(n, static_cast<long long>(r.records.size()));
}

TEST(GoldenReportTest, DeltaZipTracingOnStaysGoldenAndSumsExactly) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig cfg = GoldenEngineConfig();
  cfg.tracing.enabled = true;
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
  EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
  EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
  EXPECT_EQ(r.total_loads, 10);
  EXPECT_EQ(r.disk_loads, 10);
  ExpectSnapshotBacksReport(r);
  ExpectExactAttribution(r);
}

TEST(GoldenReportTest, VllmScbTracingOnStaysGoldenAndSumsExactly) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig cfg = GoldenEngineConfig();
  cfg.artifact = ArtifactKind::kFullModel;
  cfg.tracing.enabled = true;
  const ServeReport r = MakeVllmScbEngine(cfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 335.98768124384088);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 17801.296086912476);
  EXPECT_DOUBLE_EQ(s.sum_first, 20102.295867942015);
  EXPECT_DOUBLE_EQ(s.sum_finish, 26333.080092819353);
  ExpectSnapshotBacksReport(r);
  ExpectExactAttribution(r);
}

TEST(GoldenReportTest, EightGpuClusterTracingOnStaysGoldenAndMerges) {
  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 6.0;
  tc.n_models = 32;
  tc.seed = 808;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  cfg.engine.tracing.enabled = true;
  const ClusterReport r = Cluster(cfg).Serve(trace);
  ASSERT_EQ(r.merged.records.size(), 551u);
  EXPECT_DOUBLE_EQ(r.merged.makespan_s, 90.801221883859554);
  const GoldenSums s = SumsOf(r.merged);
  EXPECT_DOUBLE_EQ(s.sum_start, 24782.342195479043);
  EXPECT_DOUBLE_EQ(s.sum_first, 24789.924368478765);
  EXPECT_DOUBLE_EQ(s.sum_finish, 25123.902618151558);
  EXPECT_EQ(r.TotalLoads(), 50);
  EXPECT_EQ(r.TotalDiskLoads(), 50);

  // Per-worker recorders are share-nothing: each GPU's report attributes its
  // own requests exactly, and the merged table is their GPU-order sum.
  ClassPathAttribution expected = {};
  long long n = 0;
  for (size_t g = 0; g < r.per_gpu.size(); ++g) {
    const ServeReport& worker = r.per_gpu[g];
    ExpectExactAttribution(worker);
    for (const TraceEvent& e : worker.trace_events) {
      EXPECT_EQ(e.gpu, static_cast<int>(g));  // cluster merge stamps the GPU
    }
    for (int c = 0; c < kNumSloClasses; ++c) {
      expected[static_cast<size_t>(c)].Merge(
          worker.path_by_class[static_cast<size_t>(c)]);
    }
  }
  for (int c = 0; c < kNumSloClasses; ++c) {
    const PathAttribution& got = r.merged.path_by_class[static_cast<size_t>(c)];
    const PathAttribution& want = expected[static_cast<size_t>(c)];
    EXPECT_EQ(got.n, want.n);
    EXPECT_DOUBLE_EQ(got.e2e.Sum(), want.e2e.Sum());
    EXPECT_DOUBLE_EQ(got.ttft.Sum(), want.ttft.Sum());
    n += got.n;
  }
  EXPECT_EQ(n, static_cast<long long>(r.merged.records.size()));

  // The merged event stream carries the router placements plus every worker
  // event, timestamp-ordered for export.
  const std::vector<TraceEvent> merged = r.MergedTraceEvents();
  size_t worker_events = r.router_events.size();
  size_t placements = 0;
  for (const TraceEvent& e : r.router_events) {
    if (e.type == TraceEventType::kRouterPlace) {
      ++placements;
    }
  }
  EXPECT_EQ(placements, trace.requests.size());
  for (const ServeReport& worker : r.per_gpu) {
    worker_events += worker.trace_events.size();
  }
  ASSERT_EQ(merged.size(), worker_events);
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].ts_s, merged[i].ts_s);
  }
}

TEST(GoldenReportTest, DeltaZipEngineMatchesPrePrefetchBehavior) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  const ServeReport r = MakeDeltaZipEngine(GoldenEngineConfig())->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
  EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
  EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
  EXPECT_EQ(r.total_loads, 10);
  EXPECT_EQ(r.disk_loads, 10);
  ExpectNoPrefetchActivity(r);
  ExpectNoTenantActivity(r);
  ExpectSnapshotBacksReport(r);
}

// ISSUE 6: the in-run snapshot timeline is pure reads off the registry, so
// enabling it at any interval must reproduce the golden doubles exactly while
// producing monotone snapshots.
TEST(GoldenReportTest, MetricsTimelineIsBitIdenticalToDisabled) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig cfg = GoldenEngineConfig();
  cfg.metrics.interval_s = 5.0;
  const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
  EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
  EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
  ASSERT_GE(r.timeline.size(), 10u);  // ~90s of simulated time at 5s intervals
  double prev_completed = 0.0;
  for (size_t i = 0; i < r.timeline.size(); ++i) {
    const MetricsSnapshot& snap = r.timeline[i];
    if (i > 0) {
      EXPECT_GT(snap.sim_time_s, r.timeline[i - 1].sim_time_s);
    }
    double completed = 0.0;
    for (int c = 0; c < kNumSloClasses; ++c) {
      completed += snap.Value(
          "engine.requests.completed",
          {{"class", SloClassName(static_cast<SloClass>(c))}});
    }
    EXPECT_GE(completed, prev_completed);  // counters are monotone over time
    prev_completed = completed;
  }
  EXPECT_LE(prev_completed, static_cast<double>(r.records.size()));
}

// The scheduler refactor must not shift the default path by a single double:
// an explicitly-constructed default SchedulerConfig, and priority scheduling
// over a single-class trace (which degenerates to the same stable sort),
// both reproduce the PR 4 golden numbers exactly.
TEST(GoldenReportTest, SchedulerDefaultsAndDegeneratePriorityStayGolden) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  for (SchedPolicy policy : {SchedPolicy::kFcfs, SchedPolicy::kPriority}) {
    EngineConfig cfg = GoldenEngineConfig();
    cfg.scheduler = SchedulerConfig();
    cfg.scheduler.policy = policy;
    const ServeReport r = MakeDeltaZipEngine(cfg)->Serve(trace);
    ASSERT_EQ(r.records.size(), 89u);
    EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
    const GoldenSums s = SumsOf(r);
    EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
    EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
    EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
    ExpectNoTenantActivity(r);
  }
}

TEST(GoldenReportTest, VllmScbEngineMatchesPrePrefetchBehavior) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig cfg = GoldenEngineConfig();
  cfg.artifact = ArtifactKind::kFullModel;
  const ServeReport r = MakeVllmScbEngine(cfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 335.98768124384088);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 17801.296086912476);
  EXPECT_DOUBLE_EQ(s.sum_first, 20102.295867942015);
  EXPECT_DOUBLE_EQ(s.sum_finish, 26333.080092819353);
  EXPECT_EQ(r.total_loads, 10);
  EXPECT_EQ(r.disk_loads, 10);
  ExpectNoPrefetchActivity(r);
  ExpectNoTenantActivity(r);
  ExpectSnapshotBacksReport(r);
}

TEST(GoldenReportTest, EightGpuClusterMatchesPrePrefetchBehavior) {
  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 6.0;
  tc.n_models = 32;
  tc.seed = 808;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  const ClusterReport r = Cluster(cfg).Serve(trace);
  ASSERT_EQ(r.merged.records.size(), 551u);
  EXPECT_DOUBLE_EQ(r.merged.makespan_s, 90.801221883859554);
  const GoldenSums s = SumsOf(r.merged);
  EXPECT_DOUBLE_EQ(s.sum_start, 24782.342195479043);
  EXPECT_DOUBLE_EQ(s.sum_first, 24789.924368478765);
  EXPECT_DOUBLE_EQ(s.sum_finish, 25123.902618151558);
  EXPECT_EQ(r.TotalLoads(), 50);
  EXPECT_EQ(r.TotalDiskLoads(), 50);
  ExpectNoPrefetchActivity(r.merged);
  EXPECT_EQ(r.TotalPrefetchIssued(), 0);
  ExpectNoTenantActivity(r.merged);
  EXPECT_EQ(r.TotalShed(), 0);
  // The merged snapshot (per-GPU MergeFrom in GPU order) must back the merged
  // scalars bit-for-bit, exactly like a single worker's snapshot backs its own.
  ExpectSnapshotBacksReport(r.merged);
  double per_gpu_loads = 0.0;
  for (const ServeReport& g : r.per_gpu) {
    ExpectSnapshotBacksReport(g);
    per_gpu_loads += g.metrics.Value("store.loads.total");
  }
  EXPECT_EQ(per_gpu_loads, r.merged.metrics.Value("store.loads.total"));
}

// PR 8: the fault/elasticity hooks at their defaults (no fault events, scaler
// off, start 0 / halt inf / speed 1 / no outages — all set EXPLICITLY here so
// a changed default breaks loudly) must keep both the engine and the cluster
// on the pre-fault code paths, reproducing the golden doubles exactly.
TEST(GoldenReportTest, ElasticHooksAtDefaultsStayGolden) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig ecfg = GoldenEngineConfig();
  ecfg.start_s = 0.0;
  ecfg.halt_s = std::numeric_limits<double>::infinity();
  ecfg.speed_factor = 1.0;
  ecfg.outages.clear();
  const ServeReport r = MakeDeltaZipEngine(ecfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
  EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
  EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
  EXPECT_TRUE(r.unfinished.empty());  // natural runs leave nothing behind

  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 6.0;
  tc.n_models = 32;
  tc.seed = 808;
  const Trace cluster_trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  cfg.faults = FaultPlan();
  cfg.autoscale = AutoscalerConfig();
  const ClusterReport cr = Cluster(cfg).Serve(cluster_trace);
  EXPECT_FALSE(cr.elastic.active);  // static path: the ledger never engages
  ASSERT_EQ(cr.merged.records.size(), 551u);
  EXPECT_DOUBLE_EQ(cr.merged.makespan_s, 90.801221883859554);
  const GoldenSums cs = SumsOf(cr.merged);
  EXPECT_DOUBLE_EQ(cs.sum_start, 24782.342195479043);
  EXPECT_DOUBLE_EQ(cs.sum_first, 24789.924368478765);
  EXPECT_DOUBLE_EQ(cs.sum_finish, 25123.902618151558);
}

// PR 8: a fixed-seed single-crash elastic run is itself pinned. The expected
// doubles were captured from the implementation that introduced the elastic
// loop; any change to epoch cutting, re-routing, carry handling, or the
// merge order that shifts a single double breaks this test.
TEST(GoldenReportTest, ElasticOneCrashRunStaysGolden) {
  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 6.0;
  tc.n_models = 32;
  tc.seed = 808;
  const Trace trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  ASSERT_TRUE(ParseFaultPlan("crash@30:w3,detect=1", cfg.faults));
  const ClusterReport r = Cluster(cfg).Serve(trace);

  EXPECT_TRUE(r.elastic.active);
  EXPECT_EQ(r.elastic.crashes, 1);
  EXPECT_EQ(r.elastic.offered, 551);
  EXPECT_EQ(r.elastic.completed + r.elastic.shed + r.elastic.failed,
            r.elastic.offered);
  EXPECT_EQ(r.elastic.failed, 0);  // survivors absorb the dead worker's load

  ASSERT_EQ(r.merged.records.size(), 551u);
  const GoldenSums s = SumsOf(r.merged);
  EXPECT_DOUBLE_EQ(r.merged.makespan_s, 90.824038088136462);
  EXPECT_DOUBLE_EQ(s.sum_start, 24901.857791203565);
  EXPECT_DOUBLE_EQ(s.sum_first, 24910.131933536355);
  EXPECT_DOUBLE_EQ(s.sum_finish, 25245.251977350479);
  EXPECT_EQ(r.elastic.retried, 1);

  // Determinism: the elastic loop is reproducible run-to-run even with the
  // parallel worker pool (share-nothing epochs, deterministic merge order).
  const ClusterReport again = Cluster(cfg).Serve(trace);
  ASSERT_EQ(again.merged.records.size(), r.merged.records.size());
  const GoldenSums s2 = SumsOf(again.merged);
  EXPECT_DOUBLE_EQ(s2.sum_start, s.sum_start);
  EXPECT_DOUBLE_EQ(s2.sum_first, s.sum_first);
  EXPECT_DOUBLE_EQ(s2.sum_finish, s.sum_finish);
  EXPECT_DOUBLE_EQ(again.merged.makespan_s, r.merged.makespan_s);
  EXPECT_EQ(again.elastic.retried, r.elastic.retried);
}

// PR 9: the artifact registry at its defaults (no registry attached to the
// engine, cluster registry disabled — set EXPLICITLY so a changed default
// breaks loudly) must keep every store on the PR 8 infinite-local-disk path,
// reproduce the golden doubles exactly, and leave no registry.* keys in the
// metric snapshots.
TEST(GoldenReportTest, RegistryOffStaysGoldenAndLeavesNoTrace) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  EngineConfig ecfg = GoldenEngineConfig();
  ecfg.registry = nullptr;
  ecfg.registry_node = 0;
  ecfg.registry_warm.clear();
  const ServeReport r = MakeDeltaZipEngine(ecfg)->Serve(trace);
  ASSERT_EQ(r.records.size(), 89u);
  EXPECT_DOUBLE_EQ(r.makespan_s, 90.574333173805186);
  const GoldenSums s = SumsOf(r);
  EXPECT_DOUBLE_EQ(s.sum_start, 4434.3527165309852);
  EXPECT_DOUBLE_EQ(s.sum_first, 4435.5281193914107);
  EXPECT_DOUBLE_EQ(s.sum_finish, 4487.3900915944778);
  EXPECT_TRUE(r.unavailable.empty());
  EXPECT_TRUE(r.cached_artifacts.empty());
  // Registry instruments are only created when a registry is attached, so the
  // snapshot must carry no registry.* keys at all (bit-identical exports).
  for (const MetricPoint& p : r.metrics.points) {
    EXPECT_NE(p.name.rfind("registry.", 0), 0u) << p.name;
  }

  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 6.0;
  tc.n_models = 32;
  tc.seed = 808;
  const Trace cluster_trace = GenerateTrace(tc);
  ClusterConfig cfg;
  cfg.placer.n_gpus = 8;
  cfg.placer.policy = PlacementPolicy::kDeltaAffinity;
  cfg.engine = GoldenEngineConfig();
  cfg.registry = RegistryConfig();  // enabled=false: no registry anywhere
  const ClusterReport cr = Cluster(cfg).Serve(cluster_trace);
  ASSERT_EQ(cr.merged.records.size(), 551u);
  EXPECT_DOUBLE_EQ(cr.merged.makespan_s, 90.801221883859554);
  const GoldenSums cs = SumsOf(cr.merged);
  EXPECT_DOUBLE_EQ(cs.sum_start, 24782.342195479043);
  EXPECT_DOUBLE_EQ(cs.sum_first, 24789.924368478765);
  EXPECT_DOUBLE_EQ(cs.sum_finish, 25123.902618151558);
  for (const MetricPoint& p : cr.merged.metrics.points) {
    EXPECT_NE(p.name.rfind("registry.", 0), 0u) << p.name;
  }

  // The elastic path at registry-off defaults reproduces the PR 8 golden
  // elastic doubles: the repair/liveness hooks must be completely inert.
  ClusterConfig fcfg = cfg;
  ASSERT_TRUE(ParseFaultPlan("crash@30:w3,detect=1", fcfg.faults));
  const ClusterReport fr = Cluster(fcfg).Serve(cluster_trace);
  ASSERT_EQ(fr.merged.records.size(), 551u);
  const GoldenSums fs = SumsOf(fr.merged);
  EXPECT_DOUBLE_EQ(fr.merged.makespan_s, 90.824038088136462);
  EXPECT_DOUBLE_EQ(fs.sum_start, 24901.857791203565);
  EXPECT_DOUBLE_EQ(fs.sum_first, 24910.131933536355);
  EXPECT_DOUBLE_EQ(fs.sum_finish, 25245.251977350479);
  EXPECT_EQ(fr.elastic.unavailable, 0);
  EXPECT_EQ(fr.elastic.repair_jobs, 0);
  EXPECT_DOUBLE_EQ(fr.elastic.repair_bytes, 0.0);
}

// ISSUE 10: the engine's report math is pure simulation and must be completely
// independent of which SIMD kernel backend is active — the natively dispatched
// run and a forced-scalar run both reproduce the PR 9 golden doubles exactly.
// A backend that leaked into scheduling (e.g. via a timing-dependent decision)
// would shift these sums on machines with different vector units.
TEST(GoldenReportTest, KernelBackendChoiceCannotMoveGoldens) {
  const Trace trace = GenerateTrace(GoldenTraceConfig());
  struct RunSums {
    double makespan;
    GoldenSums sums;
  };
  const auto run_once = [&trace]() -> RunSums {
    const ServeReport r = MakeDeltaZipEngine(GoldenEngineConfig())->Serve(trace);
    EXPECT_EQ(r.records.size(), 89u);
    return {r.makespan_s, SumsOf(r)};
  };

  const RunSums native = run_once();  // whatever the CPU probe picked
  ASSERT_TRUE(kernels::ForceBackend("scalar"));
  const RunSums scalar = run_once();
  kernels::ResetBackend();

  for (const RunSums& r : {native, scalar}) {
    EXPECT_DOUBLE_EQ(r.makespan, 90.574333173805186);
    EXPECT_DOUBLE_EQ(r.sums.sum_start, 4434.3527165309852);
    EXPECT_DOUBLE_EQ(r.sums.sum_first, 4435.5281193914107);
    EXPECT_DOUBLE_EQ(r.sums.sum_finish, 4487.3900915944778);
  }
}

// Engine paths the single-class goldens above never reach: multi-tenant
// policies, shedding, class and parent-finish preemption, prefetch with warm
// hints, LoRA artifacts and the vLLM-SCB baseline under priority. Each case
// replays one 8-tenant flash-crowd trace; the expected values were captured
// from the two separate engine loops that preceded the shared EngineCore.
struct EnginePin {
  const char* name;
  void (*configure)(const Trace& trace, EngineConfig& cfg);
  bool vllm;
  size_t records;
  double makespan_s;
  GoldenSums sums;
  std::array<int, kNumSloClasses> shed_by_class;
  double preemptions;
  int total_loads;
  int prefetch_issued;
  int prefetch_hits;
  int prefetch_wasted;
  double stall_hidden_s;
};

Trace FlashCrowdTrace() {
  TraceConfig tc = GoldenTraceConfig();
  tc.arrival_rate = 10.0;
  tc.n_models = 32;
  tc.tenants.n_tenants = 8;
  tc.tenants.scenario = TenantScenario::kFlashCrowd;
  tc.tenants.interactive_frac = 0.3;
  tc.tenants.batch_frac = 0.2;
  return GenerateTrace(tc);
}

const EnginePin kEnginePins[] = {
    {"DeltaZipDwfqShedsAndPreemptsByClass",
     [](const Trace&, EngineConfig& cfg) {
       cfg.exec.tp = 1;  // one GPU: the flash crowd outruns it and sheds
       cfg.scheduler.policy = SchedPolicy::kDwfq;
       cfg.scheduler.admission_control = true;
       cfg.scheduler.class_preemption = true;
     },
     false, 1051, 132.78901528081875,
     {69461.491160981604, 69635.588246223197, 73523.269506099503}, {42, 0, 0},
     3376.0, 71, 0, 0, 0, 0.0},
    {"DeltaZipPriorityPrefetchesWarmHints",
     [](const Trace& trace, EngineConfig& cfg) {
       cfg.scheduler.policy = SchedPolicy::kPriority;
       cfg.prefetch.enabled = true;
       cfg.prefetch.warm_hints = ModelsByPopularity(trace, 4);
     },
     false, 1093, 91.028110709107096,
     {48643.149973537569, 48668.709054636071, 49607.080145562832}, {0, 0, 0},
     1027.0, 60, 4, 4, 0, 0.20483146561265519},
    {"DeltaZipLoraAdapters",
     [](const Trace&, EngineConfig& cfg) { cfg.artifact = ArtifactKind::kLoraAdapter; },
     false, 1093, 90.829357557984906,
     {48456.673020759226, 48472.633781733442, 49165.756477340816}, {0, 0, 0},
     1031.0, 66, 0, 0, 0, 0.0},
    {"VllmScbPriorityShedsAndPrefetches",
     [](const Trace&, EngineConfig& cfg) {
       cfg.artifact = ArtifactKind::kFullModel;
       cfg.scheduler.policy = SchedPolicy::kPriority;
       cfg.scheduler.admission_control = true;
       cfg.prefetch.enabled = true;
     },
     true, 341, 723.36600895242293,
     {130155.90458705687, 131976.83743440703, 152044.47211359706}, {279, 470, 3},
     0.0, 22, 10, 10, 0, 8.9124742138367594},
};

TEST(GoldenReportTest, MultiTenantEnginePathsStayGolden) {
  const Trace trace = FlashCrowdTrace();
  for (const EnginePin& pin : kEnginePins) {
    SCOPED_TRACE(pin.name);
    EngineConfig cfg = GoldenEngineConfig();
    pin.configure(trace, cfg);
    const ServeReport r = pin.vllm ? MakeVllmScbEngine(cfg)->Serve(trace)
                                   : MakeDeltaZipEngine(cfg)->Serve(trace);
    EXPECT_EQ(r.records.size(), pin.records);
    EXPECT_DOUBLE_EQ(r.makespan_s, pin.makespan_s);
    const GoldenSums s = SumsOf(r);
    EXPECT_DOUBLE_EQ(s.sum_start, pin.sums.sum_start);
    EXPECT_DOUBLE_EQ(s.sum_first, pin.sums.sum_first);
    EXPECT_DOUBLE_EQ(s.sum_finish, pin.sums.sum_finish);
    EXPECT_EQ(r.shed_by_class, pin.shed_by_class);
    EXPECT_EQ(r.metrics.Value("engine.preemptions"), pin.preemptions);
    EXPECT_EQ(r.total_loads, pin.total_loads);
    EXPECT_EQ(r.prefetch_issued, pin.prefetch_issued);
    EXPECT_EQ(r.prefetch_hits, pin.prefetch_hits);
    EXPECT_EQ(r.prefetch_wasted, pin.prefetch_wasted);
    EXPECT_DOUBLE_EQ(r.stall_hidden_s, pin.stall_hidden_s);
    ExpectSnapshotBacksReport(r);
  }
}

}  // namespace
}  // namespace dz
