#include "src/serving/engine.h"

#include <string>

#include <gtest/gtest.h>

#include "src/util/stats.h"

namespace dz {
namespace {

EngineConfig Default13BConfig() {
  EngineConfig cfg;
  cfg.exec.shape = ModelShape::Llama13B();
  cfg.exec.gpu = GpuSpec::A800();
  cfg.exec.tp = 4;
  cfg.max_batch = 32;
  cfg.max_concurrent_deltas = 8;
  return cfg;
}

TraceConfig SmallTraceConfig() {
  TraceConfig cfg;
  cfg.n_models = 12;
  cfg.arrival_rate = 0.6;
  cfg.duration_s = 90.0;
  cfg.dist = PopularityDist::kZipf;
  cfg.output_mean_tokens = 60.0;
  cfg.output_max_tokens = 200;
  cfg.seed = 11;
  return cfg;
}

void CheckReportSanity(const ServeReport& report, const Trace& trace) {
  ASSERT_EQ(report.records.size(), trace.requests.size()) << "every request must finish";
  for (const auto& r : report.records) {
    EXPECT_GE(r.sched_attempt_s, r.arrival_s - 1e-9) << r.id;
    EXPECT_GE(r.start_s, r.sched_attempt_s - 1e-9) << r.id;
    EXPECT_GE(r.first_token_s, r.start_s - 1e-9) << r.id;
    EXPECT_GE(r.finish_s, r.first_token_s - 1e-9) << r.id;
    EXPECT_GT(r.E2eLatency(), 0.0);
  }
  EXPECT_GT(report.makespan_s, 0.0);
  EXPECT_GT(report.ThroughputRps(), 0.0);
}

TEST(DeltaZipEngineTest, CompletesAllRequests) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  auto engine = MakeDeltaZipEngine(Default13BConfig());
  const ServeReport report = engine->Serve(trace);
  CheckReportSanity(report, trace);
}

TEST(DeltaZipEngineTest, DeterministicAcrossRuns) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  auto engine = MakeDeltaZipEngine(Default13BConfig());
  const ServeReport a = engine->Serve(trace);
  const ServeReport b = MakeDeltaZipEngine(Default13BConfig())->Serve(trace);
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_DOUBLE_EQ(a.MeanE2e(), b.MeanE2e());
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

TEST(VllmScbEngineTest, CompletesAllRequests) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  auto engine = MakeVllmScbEngine(Default13BConfig());
  const ServeReport report = engine->Serve(trace);
  CheckReportSanity(report, trace);
}

TEST(EngineComparisonTest, DeltaZipBeatsBaselineOnSkewedTrace) {
  // The paper's headline (Figs. 11–12): 2–12x throughput, bigger TTFT gains.
  TraceConfig tc = SmallTraceConfig();
  tc.n_models = 24;
  tc.arrival_rate = 1.0;
  tc.duration_s = 120.0;
  const Trace trace = GenerateTrace(tc);
  const ServeReport dz = MakeDeltaZipEngine(Default13BConfig())->Serve(trace);
  const ServeReport scb = MakeVllmScbEngine(Default13BConfig())->Serve(trace);
  EXPECT_LT(dz.MeanE2e(), scb.MeanE2e());
  EXPECT_LT(dz.MeanTtft(), scb.MeanTtft());
  EXPECT_GT(scb.MeanE2e() / dz.MeanE2e(), 1.5) << "expected a clear win on skewed traces";
}

TEST(DeltaZipEngineTest, LoraArtifactsServeFasterThanDeltas) {
  // Fig. 15: LoRA adapters are even lighter than compressed deltas.
  TraceConfig tc = SmallTraceConfig();
  tc.arrival_rate = 1.5;
  const Trace trace = GenerateTrace(tc);
  EngineConfig delta_cfg = Default13BConfig();
  EngineConfig lora_cfg = Default13BConfig();
  lora_cfg.artifact = ArtifactKind::kLoraAdapter;
  lora_cfg.lora_rank = 16;
  const ServeReport dz = MakeDeltaZipEngine(delta_cfg)->Serve(trace);
  const ServeReport lora = MakeDeltaZipEngine(lora_cfg)->Serve(trace);
  EXPECT_LE(lora.MeanE2e(), dz.MeanE2e() * 1.05);
}

TEST(DeltaZipEngineTest, PreemptionReducesTailTtft) {
  // Fig. 19: parent-finish preemption avoids starving queued variants.
  TraceConfig tc;
  tc.n_models = 16;
  tc.arrival_rate = 2.5;
  tc.duration_s = 120.0;
  tc.dist = PopularityDist::kZipf;
  tc.zipf_alpha = 2.0;  // heavy skew → hot variant keeps skipping the line
  tc.output_mean_tokens = 80.0;
  tc.output_max_tokens = 250;
  tc.seed = 23;
  const Trace trace = GenerateTrace(tc);
  EngineConfig with = Default13BConfig();
  with.preemption = true;
  EngineConfig without = Default13BConfig();
  without.preemption = false;
  const ServeReport r_with = MakeDeltaZipEngine(with)->Serve(trace);
  const ServeReport r_without = MakeDeltaZipEngine(without)->Serve(trace);
  const double p90_with = Percentile(r_with.Ttfts(), 90);
  const double p90_without = Percentile(r_without.Ttfts(), 90);
  EXPECT_LE(p90_with, p90_without * 1.02)
      << "preemption should not hurt P90 TTFT, and usually helps";
  // Preemption must actually fire under this load.
  int preemptions = 0;
  for (const auto& r : r_with.records) {
    preemptions += r.preemptions;
  }
  EXPECT_GT(preemptions, 0);
}

TEST(DeltaZipEngineTest, MoreConcurrentDeltasHelpsUntilMemoryPressure) {
  // Fig. 10's N tradeoff: N=1 serializes variants; very large N squeezes KV space.
  TraceConfig tc;
  tc.n_models = 16;
  tc.arrival_rate = 3.0;
  tc.duration_s = 60.0;
  tc.dist = PopularityDist::kZipf;
  tc.zipf_alpha = 1.0;
  tc.seed = 31;
  const Trace trace = GenerateTrace(tc);
  EngineConfig n1 = Default13BConfig();
  n1.exec.tp = 1;
  n1.exec.gpu = GpuSpec::Rtx3090();
  n1.exec.shape = ModelShape::Pythia2p8B();
  EngineConfig n6 = n1;
  n1.max_concurrent_deltas = 1;
  n6.max_concurrent_deltas = 6;
  const double t1 = MakeDeltaZipEngine(n1)->Serve(trace).MeanTimePerToken();
  const double t6 = MakeDeltaZipEngine(n6)->Serve(trace).MeanTimePerToken();
  EXPECT_LT(t6, t1) << "batching across variants must beat serial variant serving";
}

TEST(EngineTest, SloAttainmentMonotoneInSlo) {
  const Trace trace = GenerateTrace(SmallTraceConfig());
  const ServeReport report = MakeDeltaZipEngine(Default13BConfig())->Serve(trace);
  double prev = 0.0;
  for (double slo : {1.0, 5.0, 20.0, 100.0, 1000.0}) {
    const double a = report.SloAttainmentE2e(slo);
    EXPECT_GE(a, prev);
    prev = a;
  }
  EXPECT_NEAR(report.SloAttainmentE2e(1e9), 1.0, 1e-12);
}

TEST(EngineTest, SaturatingArrivalRateRaisesLatency) {
  // Note: at *low* rates per-request latency can exceed moderate-rate latency because
  // every request pays a cold artifact load; the monotone regime is near saturation.
  TraceConfig moderate = SmallTraceConfig();
  moderate.arrival_rate = 2.0;
  TraceConfig saturated = SmallTraceConfig();
  saturated.arrival_rate = 12.0;
  const ServeReport r_mod =
      MakeDeltaZipEngine(Default13BConfig())->Serve(GenerateTrace(moderate));
  const ServeReport r_sat =
      MakeDeltaZipEngine(Default13BConfig())->Serve(GenerateTrace(saturated));
  EXPECT_GT(r_sat.MeanE2e(), r_mod.MeanE2e());
}

// One request of `prompt` + `output` tokens at t = 0 on model 0.
Trace SingleRequestTrace(int prompt, int output) {
  Trace trace;
  trace.n_models = 1;
  trace.duration_s = 1.0;
  TraceRequest req;
  req.prompt_tokens = prompt;
  req.output_tokens = output;
  trace.requests.push_back(req);
  return trace;
}

struct NamedEngine {
  const char* name;
  std::unique_ptr<ServingEngine> (*make)(const EngineConfig&);
  ArtifactKind artifact;
};

const NamedEngine kEngines[] = {
    {"deltazip", MakeDeltaZipEngine, ArtifactKind::kCompressedDelta},
    {"vllm-scb", MakeVllmScbEngine, ArtifactKind::kFullModel},
};

// A prompt longer than the per-iteration prefill budget still gets its
// prefill: the round's first prefill is always taken. The finite halt turns a
// request that is never prefilled into an unfinished one instead of a hang.
TEST(EngineTest, PromptLongerThanPrefillBudgetIsServed) {
  for (const NamedEngine& e : kEngines) {
    SCOPED_TRACE(e.name);
    EngineConfig cfg = Default13BConfig();
    cfg.artifact = e.artifact;
    cfg.halt_s = 600.0;
    const Trace trace = SingleRequestTrace(
        static_cast<int>(cfg.max_prefill_tokens) + 1, 8);
    const ServeReport report = e.make(cfg)->Serve(trace);
    ASSERT_EQ(report.records.size(), 1u);
    EXPECT_TRUE(report.unfinished.empty());
    EXPECT_GT(report.records[0].first_token_s, report.records[0].start_s);
    EXPECT_LT(report.records[0].finish_s, 60.0);
  }
}

// A request whose KV footprint exceeds the whole KV pool can never be
// admitted. It is parked as a typed failure — unavailable on a natural run,
// unfinished on a halted one — while the rest of the trace is served.
TEST(EngineTest, RequestLargerThanKvPoolIsParkedNotFatal) {
  for (const NamedEngine& e : kEngines) {
    for (bool halted : {false, true}) {
      SCOPED_TRACE(std::string(e.name) + (halted ? " halted" : " natural"));
      EngineConfig cfg = Default13BConfig();
      cfg.artifact = e.artifact;
      if (halted) {
        cfg.halt_s = 600.0;
      }
      Trace trace = GenerateTrace(SmallTraceConfig());
      ASSERT_GT(trace.requests.size(), 3u);
      const int huge_id = trace.requests[2].id;
      trace.requests[2].output_tokens = 100000000;
      const ServeReport report = e.make(cfg)->Serve(trace);
      EXPECT_EQ(report.records.size(), trace.requests.size() - 1);
      const std::vector<TraceRequest>& parked =
          halted ? report.unfinished : report.unavailable;
      ASSERT_EQ(parked.size(), 1u);
      EXPECT_EQ(parked[0].id, huge_id);
      EXPECT_TRUE((halted ? report.unavailable : report.unfinished).empty());
    }
  }
}

}  // namespace
}  // namespace dz
