// Chaos suite for the elastic cluster layer: seeded randomized fault schedules
// against every placement policy, with the request-conservation ledger
// (completed + shed + failed == offered) as the master invariant. The elastic
// loop DZ_CHECKs the same identity internally; these tests re-derive it from
// the report so a bookkeeping bug on either side trips.
#include "src/cluster/fault_model.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/router.h"

namespace dz {
namespace {

EngineConfig WorkerConfig() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_batch = 32;
  cfg.max_concurrent_deltas = 8;
  return cfg;
}

// ~1k requests (5 req/s x 200 s), multi-tenant with an interactive slice so
// per-class machinery runs under faults too.
TraceConfig ChaosTraceConfig() {
  TraceConfig cfg;
  cfg.n_models = 24;
  cfg.arrival_rate = 5.0;
  cfg.duration_s = 200.0;
  cfg.dist = PopularityDist::kZipf;
  cfg.output_mean_tokens = 60.0;
  cfg.output_max_tokens = 200;
  cfg.seed = 4242;
  cfg.tenants.n_tenants = 4;
  cfg.tenants.interactive_frac = 0.25;
  return cfg;
}

ClusterConfig ChaosClusterConfig(PlacementPolicy policy) {
  ClusterConfig cfg;
  cfg.placer.n_gpus = 4;
  cfg.placer.policy = policy;
  cfg.engine = WorkerConfig();
  return cfg;
}

// The conservation ledger, re-derived from report internals rather than read
// back from the elastic struct alone.
void ExpectConservation(const ClusterReport& report, long long offered) {
  EXPECT_TRUE(report.elastic.active);
  EXPECT_EQ(report.elastic.offered, offered);
  EXPECT_EQ(static_cast<long long>(report.merged.records.size()),
            report.elastic.completed);
  EXPECT_EQ(report.elastic.completed + report.elastic.shed +
                report.elastic.failed,
            report.elastic.offered);
  // No request may complete twice (a re-routed retry that also finished on the
  // dead worker would double-count).
  std::set<int> ids;
  for (const RequestRecord& rec : report.merged.records) {
    EXPECT_TRUE(ids.insert(rec.id).second) << "request " << rec.id
                                           << " completed twice";
  }
}

class FaultChaosTest : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(FaultChaosTest, RandomFaultSchedulesConserveEveryRequest) {
  const Trace trace = GenerateTrace(ChaosTraceConfig());
  const long long offered = static_cast<long long>(trace.requests.size());
  ASSERT_GE(offered, 900);  // the chaos workload really is ~1k requests

  for (uint64_t seed : {1ULL, 7ULL}) {
    ClusterConfig cfg = ChaosClusterConfig(GetParam());
    cfg.faults = RandomFaultPlan(seed, cfg.placer.n_gpus, trace.duration_s,
                                 /*n_events=*/6);
    ASSERT_TRUE(cfg.faults.Enabled());
    const ClusterReport report = Cluster(cfg).Serve(trace);
    ExpectConservation(report, offered);
    // Crash/recovery counters reflect the plan's applied events (a crash on an
    // already-dead worker is ignored, so <=).
    int plan_crashes = 0;
    for (const FaultEvent& ev : cfg.faults.events) {
      plan_crashes += ev.type == FaultType::kCrash ? 1 : 0;
    }
    EXPECT_LE(report.elastic.crashes, plan_crashes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FaultChaosTest,
    ::testing::Values(PlacementPolicy::kRoundRobin,
                      PlacementPolicy::kLeastOutstanding,
                      PlacementPolicy::kDeltaAffinity,
                      PlacementPolicy::kTenantAffinity),
    [](const ::testing::TestParamInfo<PlacementPolicy>& info) {
      std::string name = PlacementPolicyName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(FaultInjectionTest, CrashWithRerouteCompletesEverythingOnSurvivors) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 4.0;
  tcfg.duration_s = 120.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kDeltaAffinity);
  // A generous detection window: arrivals keep landing on the dead worker
  // until the router notices, so the re-route path visibly carries requests.
  ASSERT_TRUE(ParseFaultPlan("crash@30:w1,detect=5", cfg.faults));

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  // Survivors absorb the dead worker's backlog: nothing fails, and the
  // re-route path actually carried requests.
  EXPECT_EQ(report.elastic.failed, 0);
  EXPECT_EQ(report.elastic.crashes, 1);
  EXPECT_GT(report.elastic.retried, 0);
  // The dead worker serves nothing after the crash: all its records finished
  // by crash time + the detection delay (the epoch boundary granularity).
  for (const RequestRecord& rec : report.per_gpu[1].records) {
    EXPECT_LE(rec.finish_s, 35.0 + 1e-9);
  }
}

TEST(FaultInjectionTest, RerouteOffStrandsBacklogOnNeverRecoveredWorker) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 2.0;
  tcfg.duration_s = 120.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kRoundRobin);
  ASSERT_TRUE(ParseFaultPlan("crash@30:w2,reroute=0", cfg.faults));

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  // Without rerouting the dead worker keeps its ring slot; every request
  // routed there after the crash is stranded and ultimately fails.
  EXPECT_GT(report.elastic.failed, 0);
  EXPECT_EQ(report.elastic.retried, 0);
}

TEST(FaultInjectionTest, RecoveredWorkerServesAgainAndNothingFails) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 2.0;
  tcfg.duration_s = 120.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kRoundRobin);
  ASSERT_TRUE(ParseFaultPlan("crash@30:w2,recover@60:w2,reroute=0", cfg.faults));

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  EXPECT_EQ(report.elastic.failed, 0);
  EXPECT_EQ(report.elastic.recoveries, 1);
  // The recovered worker finished requests after rejoining.
  bool served_after_recovery = false;
  for (const RequestRecord& rec : report.per_gpu[2].records) {
    served_after_recovery |= rec.finish_s > 60.0;
  }
  EXPECT_TRUE(served_after_recovery);
}

TEST(FaultInjectionTest, SlowAndPartitionWindowsLoseNothing) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 2.0;
  tcfg.duration_s = 120.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kLeastOutstanding);
  ASSERT_TRUE(
      ParseFaultPlan("slow@20-50:w0x0.5,part@40-70:w3", cfg.faults));

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  // Degradation faults never kill requests: everything completes.
  EXPECT_EQ(report.elastic.failed, 0);
  EXPECT_EQ(report.elastic.crashes, 0);
  EXPECT_EQ(static_cast<long long>(trace.requests.size()),
            report.elastic.completed + report.elastic.shed);
}

TEST(FaultInjectionTest, ConservationHoldsWithAdmissionShedding) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 4.0;
  tcfg.duration_s = 120.0;
  const Trace trace = GenerateTrace(tcfg);

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kRoundRobin);
  cfg.placer.n_gpus = 2;  // overload so the shed path actually fires
  cfg.engine.scheduler.admission_control = true;
  cfg.engine.scheduler.slo.per_class[static_cast<int>(SloClass::kStandard)] = {
      5.0, 20.0};
  cfg.engine.scheduler.slo.per_class[static_cast<int>(SloClass::kInteractive)] =
      {2.0, 10.0};
  ASSERT_TRUE(ParseFaultPlan("crash@30:w0,slow@50-90:w1x0.5", cfg.faults));

  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  EXPECT_GT(report.elastic.shed, 0);
}

// A request too large for any worker's KV pool ends as a typed failure in the
// ledger instead of aborting the run; everything else still completes.
TEST(FaultInjectionTest, RequestLargerThanKvPoolFailsTypedAndConserves) {
  TraceConfig tcfg = ChaosTraceConfig();
  tcfg.arrival_rate = 2.0;
  tcfg.duration_s = 60.0;
  Trace trace = GenerateTrace(tcfg);
  ASSERT_GT(trace.requests.size(), 10u);
  trace.requests[5].output_tokens = 100000000;

  ClusterConfig cfg = ChaosClusterConfig(PlacementPolicy::kDeltaAffinity);
  ASSERT_TRUE(ParseFaultPlan("crash@20:w1,recover@40:w1,detect=2", cfg.faults));
  const ClusterReport report = Cluster(cfg).Serve(trace);
  ExpectConservation(report, static_cast<long long>(trace.requests.size()));
  EXPECT_EQ(report.elastic.failed, 1);
  EXPECT_EQ(report.elastic.completed,
            static_cast<long long>(trace.requests.size()) - 1);
}

TEST(FaultPlanTest, ParsesEveryTokenKind) {
  FaultPlan plan;
  ASSERT_TRUE(ParseFaultPlan(
      "crash@10:w1,recover@20:w1,slow@5-15:w0x0.25,part@30-40:w2,"
      "detect=1.5,reroute=0",
      plan));
  EXPECT_EQ(plan.events.size(), 6u);  // two windows expand to start/end pairs
  EXPECT_DOUBLE_EQ(plan.detection_delay_s, 1.5);
  EXPECT_FALSE(plan.reroute);
  // Sorted by time.
  for (size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].t_s, plan.events[i].t_s);
  }
}

TEST(FaultPlanTest, RejectsMalformedSpecsUntouched) {
  FaultPlan plan;
  plan.detection_delay_s = 9.0;
  for (const char* bad :
       {"crash@", "crash@10", "crash@10:x1", "slow@10-5:w0x0.5",
        "slow@1-2:w0x0", "slow@1-2:w0x1.5", "part@7:w0", "bogus@1:w0",
        "detect=", "reroute=2"}) {
    EXPECT_FALSE(ParseFaultPlan(bad, plan)) << bad;
    EXPECT_DOUBLE_EQ(plan.detection_delay_s, 9.0) << bad;
    EXPECT_TRUE(plan.events.empty()) << bad;
  }
}

// The spec printer is the parser's inverse: parse → print → parse reproduces
// the plan event-by-event (exactly for parsed plans; to 1e-9 for arbitrary
// timestamps, the printer's formatting precision).
void ExpectPlansMatch(const FaultPlan& got, const FaultPlan& want) {
  ASSERT_EQ(got.events.size(), want.events.size());
  for (size_t i = 0; i < want.events.size(); ++i) {
    EXPECT_EQ(got.events[i].type, want.events[i].type) << "event " << i;
    EXPECT_EQ(got.events[i].worker, want.events[i].worker) << "event " << i;
    EXPECT_NEAR(got.events[i].t_s, want.events[i].t_s, 1e-9) << "event " << i;
    EXPECT_NEAR(got.events[i].multiplier, want.events[i].multiplier, 1e-9)
        << "event " << i;
  }
  EXPECT_NEAR(got.detection_delay_s, want.detection_delay_s, 1e-9);
  EXPECT_EQ(got.reroute, want.reroute);
}

TEST(FaultPlanTest, SpecRoundTripsThroughPrinter) {
  for (const char* spec :
       {"crash@10:w1,detect=1",
        "crash@10:w1,recover@20:w1,slow@5-15:w0x0.25,part@30-40:w2,"
        "detect=1.5,reroute=0",
        "part@3-9:w0,part@4-8:w0,detect=1",  // overlapping windows, one worker
        "crash@0.5:w3,detect=0.25",
        "slow@1.25-2.75:w1x0.5,crash@2:w0,detect=2"}) {
    FaultPlan plan;
    ASSERT_TRUE(ParseFaultPlan(spec, plan)) << spec;
    const std::string printed = FaultPlanToSpec(plan);
    FaultPlan reparsed;
    ASSERT_TRUE(ParseFaultPlan(printed, reparsed)) << printed;
    ExpectPlansMatch(reparsed, plan);
    // The printer is a fixpoint of the round trip.
    EXPECT_EQ(FaultPlanToSpec(reparsed), printed) << spec;
  }
}

TEST(FaultPlanTest, RandomPlansRoundTripThroughSpec) {
  for (uint64_t seed : {5ULL, 23ULL, 99ULL}) {
    const FaultPlan plan = RandomFaultPlan(seed, 6, 250.0, 10);
    const std::string printed = FaultPlanToSpec(plan);
    FaultPlan reparsed;
    ASSERT_TRUE(ParseFaultPlan(printed, reparsed)) << printed;
    ExpectPlansMatch(reparsed, plan);
  }
}

TEST(FaultPlanTest, RandomPlansAreSeedDeterministicAndWellFormed) {
  const FaultPlan a = RandomFaultPlan(99, 8, 300.0, 12);
  const FaultPlan b = RandomFaultPlan(99, 8, 300.0, 12);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_GE(static_cast<int>(a.events.size()), 12);
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events[i].t_s, b.events[i].t_s);
    EXPECT_EQ(a.events[i].type, b.events[i].type);
    EXPECT_EQ(a.events[i].worker, b.events[i].worker);
    EXPECT_GE(a.events[i].worker, 0);
    EXPECT_LT(a.events[i].worker, 8);
    EXPECT_GE(a.events[i].t_s, 0.0);
    if (i > 0) {
      EXPECT_LE(a.events[i - 1].t_s, a.events[i].t_s);
    }
  }
  const FaultPlan c = RandomFaultPlan(100, 8, 300.0, 12);
  bool differs = c.events.size() != a.events.size();
  for (size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = c.events[i].t_s != a.events[i].t_s ||
              c.events[i].worker != a.events[i].worker;
  }
  EXPECT_TRUE(differs);  // different seed, different schedule
}

}  // namespace
}  // namespace dz
