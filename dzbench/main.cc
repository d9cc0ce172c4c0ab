// The repository benchmark. One command runs one workload for one seed:
//
//   dzbench --workload fmt_pipeline|variant_serve|sim_cluster --seed N
//           --seconds S --trace 0|1
//
// It sets the workload up several times (set-up time is the median of the
// workload's own phase), measures the workload's own phase for about S seconds
// and runs the other two phases as fixed-size companions, so every run reports
// every metric; the slices of the three phases are interleaved (see Phase in
// phases.h). Set-up time and peak memory cover the workload's own phase only.
// With --trace 1 it measures twice, untraced and then traced, S/2 seconds
// each: end-to-end metrics come from the untraced pass, per-layer metrics and
// the self-time table from the traced one, and the report states the tracing
// overhead on every end-to-end metric. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed check exits 1.
//
// `dzbench --list-metrics` prints the metric declarations, one JSON object a
// line, which run.py checks against BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "phases.h"
#include "src/util/logging.h"

namespace dzbench {
namespace {

constexpr int kSetupReps = 3;
constexpr int kSlices = 8;
constexpr uint64_t kCompanionSeed = 0x00c0ffee;

struct MetricDecl {
  const char* name;
  const char* unit;
  const char* better;
  const char* workload;  // the workload whose own phase measures it
  const char* moves;     // per-layer: the end-to-end metric(s) it should move
};

// Every end-to-end metric. Each workload measures its own at full size; the
// others come from the companion phases.
const MetricDecl kEndToEnd[] = {
    {"pipeline_variants_per_s", "1/s", "higher", "fmt_pipeline", ""},
    {"compression_ratio", "ratio", "higher", "fmt_pipeline", ""},
    {"quality_retained", "ratio", "higher", "fmt_pipeline", ""},
    {"load_ms_p50", "ms", "lower", "variant_serve", ""},
    {"load_ms_p90", "ms", "lower", "variant_serve", ""},
    {"e2e_ms_p50", "ms", "lower", "variant_serve", ""},
    {"e2e_ms_p90", "ms", "lower", "variant_serve", ""},
    {"goodput_rps", "req/s", "higher", "variant_serve", ""},
    {"serve_token_match", "ratio", "higher", "variant_serve", ""},
    {"sim_deltazip_req_per_s", "req/s", "higher", "sim_cluster", ""},
    {"sim_vllm_req_per_s", "req/s", "higher", "sim_cluster", ""},
    {"sim_elastic_req_per_s", "req/s", "higher", "sim_cluster", ""},
    {"sim_slo_attainment", "ratio", "higher", "sim_cluster", ""},
    {"setup_s", "s", "lower", "all", ""},
    {"peak_rss_mb", "MB", "lower", "all", ""},
};

const MetricDecl kPerLayer[] = {
    {"train.finetune_s", "s", "lower", "fmt_pipeline", "pipeline_variants_per_s"},
    {"train.step_gflops", "GFLOP/s", "higher", "fmt_pipeline", "pipeline_variants_per_s"},
    {"pipeline.cpu_per_wall", "ratio", "higher", "fmt_pipeline", "pipeline_variants_per_s"},
    {"compress.delta_compress_s", "s", "lower", "fmt_pipeline",
     "pipeline_variants_per_s compression_ratio quality_retained"},
    {"compress.encode_s", "s", "lower", "fmt_pipeline", "pipeline_variants_per_s"},
    {"compress.lossless_ratio", "ratio", "higher", "fmt_pipeline", "compression_ratio"},
    {"nn.eval_s", "s", "lower", "fmt_pipeline", "pipeline_variants_per_s"},
    {"setup.pretrain_s", "s", "lower", "fmt_pipeline", "setup_s"},
    {"compress.lossless_decode_ms", "ms", "lower", "variant_serve", "load_ms_p50 load_ms_p90"},
    {"compress.decode_ms", "ms", "lower", "variant_serve", "load_ms_p50 load_ms_p90"},
    {"core.register_ms", "ms", "lower", "variant_serve", "load_ms_p50 load_ms_p90"},
    {"core.generate_ms_p50", "ms", "lower", "variant_serve", "e2e_ms_p50 e2e_ms_p90 goodput_rps"},
    {"core.generate_ms_p90", "ms", "lower", "variant_serve", "e2e_ms_p50 e2e_ms_p90 goodput_rps"},
    {"serve.ms_per_token", "ms", "lower", "variant_serve", "e2e_ms_p50 e2e_ms_p90 goodput_rps"},
    {"serve.delta_overhead", "ratio", "lower", "variant_serve",
     "e2e_ms_p50 e2e_ms_p90 goodput_rps"},
    {"serve.worker_busy", "ratio", "lower", "variant_serve", "e2e_ms_p50 e2e_ms_p90 goodput_rps"},
    {"tensor.gemm_nt_m1_us", "us", "lower", "variant_serve", "e2e_ms_p50 e2e_ms_p90 goodput_rps"},
    {"compress.delta_gemm_m1_us", "us", "lower", "variant_serve",
     "e2e_ms_p50 e2e_ms_p90 goodput_rps"},
    {"driver.queue_ms_p50", "ms", "lower", "variant_serve", "e2e_ms_p50 e2e_ms_p90"},
    {"driver.queue_ms_p90", "ms", "lower", "variant_serve", "e2e_ms_p50 e2e_ms_p90"},
    {"driver.lateness_ms_p99", "ms", "lower", "variant_serve",
     "none: shows whether the open-loop run is valid"},
    {"workload.generate_s", "s", "lower", "sim_cluster",
     "sim_deltazip_req_per_s sim_vllm_req_per_s sim_elastic_req_per_s"},
    {"cluster.route_s", "s", "lower", "sim_cluster", "sim_deltazip_req_per_s sim_vllm_req_per_s"},
    {"serving.engine_serve_s.deltazip", "s", "lower", "sim_cluster", "sim_deltazip_req_per_s"},
    {"serving.engine_serve_s.vllm", "s", "lower", "sim_cluster", "sim_vllm_req_per_s"},
    {"serving.worker_skew.deltazip", "ratio", "lower", "sim_cluster", "sim_deltazip_req_per_s"},
    {"serving.worker_skew.vllm", "ratio", "lower", "sim_cluster", "sim_vllm_req_per_s"},
    {"cluster.merge_s", "s", "lower", "sim_cluster", "sim_deltazip_req_per_s sim_vllm_req_per_s"},
    {"elastic.serve_s", "s", "lower", "sim_cluster", "sim_elastic_req_per_s"},
    {"sim.cpu_per_wall", "ratio", "higher", "sim_cluster",
     "sim_deltazip_req_per_s sim_vllm_req_per_s sim_elastic_req_per_s"},
    {"engine.rounds_per_req.deltazip", "count", "lower", "sim_cluster", "sim_deltazip_req_per_s"},
    {"engine.rounds_per_req.vllm", "count", "lower", "sim_cluster", "sim_vllm_req_per_s"},
    {"engine.rounds_per_req.elastic", "count", "lower", "sim_cluster", "sim_elastic_req_per_s"},
    {"latency.queue_s_p99.deltazip", "s", "lower", "sim_cluster",
     "sim_deltazip_req_per_s sim_slo_attainment"},
    {"latency.queue_s_p99.vllm", "s", "lower", "sim_cluster", "sim_vllm_req_per_s"},
    {"latency.queue_s_p99.elastic", "s", "lower", "sim_cluster", "sim_elastic_req_per_s"},
    {"store.loads_total.deltazip", "count", "lower", "sim_cluster", "sim_deltazip_req_per_s"},
    {"store.loads_total.vllm", "count", "lower", "sim_cluster", "sim_vllm_req_per_s"},
    {"store.loads_total.elastic", "count", "lower", "sim_cluster", "sim_elastic_req_per_s"},
};

// Self time of every layer, as a share of all traced span time in the run.
const char* const kLayers[] = {"pipeline", "train", "compress", "nn",      "serve",
                               "driver",   "core",  "tensor",   "sim",     "workload",
                               "cluster",  "serving", "elastic"};

const char* const kWorkloads[] = {"fmt_pipeline", "variant_serve", "sim_cluster"};

// NaN for a metric that was not measured (printing must not create it).
double ValueOf(const MetricMap& metrics, const std::string& name) {
  const auto it = metrics.find(name);
  return it == metrics.end() ? std::nan("") : it->second.value;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void ListMetrics() {
  auto print = [](const char* kind, const MetricDecl& m) {
    std::printf(
        "{\"kind\": \"%s\", \"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
        "\"workload\": \"%s\", \"moves\": \"%s\"}\n",
        kind, m.name, m.unit, m.better, m.workload, m.moves);
  };
  for (const MetricDecl& m : kEndToEnd) {
    print("end_to_end", m);
  }
  for (const MetricDecl& m : kPerLayer) {
    print("per_layer", m);
  }
  for (const char* layer : kLayers) {
    const std::string name = std::string("self_share.") + layer;
    print("per_layer", {name.c_str(), "ratio", "lower", "all", "self time of the layer"});
  }
}

struct Pass {
  MetricMap e2e;
  MetricMap layer;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  std::vector<Span> spans;
};

// Peak resident set while the main phase works: the kernel's peak is reset
// before each of its set-ups and slices and read after it, so companion work
// in between does not count (memory companions keep resident does).
struct MainPeak {
  bool scoped = true;  // false: the kernel refused the reset, the peak is process-wide
  double mb = 0.0;
  void Begin() { scoped = ResetPeakRss() && scoped; }
  void End() { mb = std::max(mb, PeakRssMb()); }
};

// Runs one pass: every phase is begun, then the slices of all phases are
// interleaved (main phase first in each round), then every phase is ended.
Pass RunPass(std::vector<std::unique_ptr<Phase>>& phases, double seconds, bool traced,
             MainPeak& peak) {
  Tracer::Get().SetEnabled(traced);
  for (auto& phase : phases) {
    phase->Begin(traced, seconds);
  }
  std::vector<std::vector<Span>> spans(phases.size());
  for (int k = 0; k < kSlices; ++k) {
    for (size_t i = 0; i < phases.size(); ++i) {
      if (i == 0) {
        peak.Begin();
      }
      phases[i]->Slice(k, kSlices);
      if (i == 0) {
        peak.End();
      }
      // Span parents index the list they were taken in; rebase them.
      const int offset = static_cast<int>(spans[i].size());
      for (Span s : Tracer::Get().Take()) {
        s.parent = s.parent >= 0 ? s.parent + offset : -1;
        spans[i].push_back(s);
      }
    }
  }
  Tracer::Get().SetEnabled(false);
  Pass pass;
  for (size_t i = 0; i < phases.size(); ++i) {
    PhaseResult r = phases[i]->End(spans[i]);
    pass.e2e.insert(r.e2e.begin(), r.e2e.end());
    pass.layer.insert(r.layer.begin(), r.layer.end());
    pass.attempted += r.attempted;
    pass.failed += r.failed;
    pass.failures.insert(pass.failures.end(), r.failures.begin(), r.failures.end());
    pass.notes.insert(pass.notes.end(), r.notes.begin(), r.notes.end());
    const int offset = static_cast<int>(pass.spans.size());
    for (Span s : spans[i]) {
      s.parent = s.parent >= 0 ? s.parent + offset : -1;
      pass.spans.push_back(s);
    }
  }
  return pass;
}

void PrintSelfTimes(const std::vector<Span>& spans, MetricMap& layer_metrics) {
  const auto totals = TotalsByName(spans);
  double all_self = 0.0;
  std::map<std::string, double> by_layer;
  for (const auto& [name, t] : totals) {
    all_self += t.self_s;
    by_layer[LayerOf(name.c_str())] += t.self_s;
  }
  std::printf("\nself time by span (traced pass; self = duration minus time covered by "
              "child spans)\n");
  std::printf("  %-32s %8s %10s %10s %7s\n", "span", "calls", "total_s", "self_s", "share");
  for (const auto& [name, t] : totals) {
    std::printf("  %-32s %8lld %10.4f %10.4f %6.2f%%\n", name.c_str(), t.calls, t.total_s,
                t.self_s, 100.0 * t.self_s / all_self);
  }
  std::printf("self time by layer\n");
  for (const char* layer : kLayers) {
    const double self = by_layer.count(layer) > 0 ? by_layer[layer] : 0.0;
    std::printf("  %-12s %10.4f s %6.2f%%\n", layer, self, 100.0 * self / all_self);
    layer_metrics[std::string("self_share.") + layer] = {self / all_self, "ratio"};
  }
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "dzbench: %s\nusage: dzbench --workload fmt_pipeline|variant_serve|sim_cluster "
               "--seed N --seconds S --trace 0|1\n       dzbench --list-metrics\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  int main_index = -1;
  for (int w = 0; w < 3; ++w) {
    main_index = workload == kWorkloads[w] ? w : main_index;
  }
  if (main_index < 0 || seed < 0 || !(seconds > 0.0 && seconds <= 600.0) ||
      (trace != 0 && trace != 1)) {
    return Usage("need a known --workload, --seed >= 0, --seconds in (0, 600], --trace 0|1");
  }
  dz::SetLogLevel(dz::LogLevel::kWarning);

  using Factory = std::unique_ptr<Phase> (*)(Scale, uint64_t);
  const Factory factories[3] = {MakePipelinePhase, MakeServePhase, MakeSimPhase};
  std::vector<std::unique_ptr<Phase>> phases;
  const auto useed = static_cast<uint64_t>(seed);
  phases.push_back(factories[main_index](Scale::kMain, useed));
  // Companions take fixed inputs: the seed varies the workload's own phase,
  // while a companion's figures should vary only with the code and the machine.
  for (int w = 0; w < 3; ++w) {
    if (w != main_index) {
      phases.push_back(factories[w](Scale::kCompanion, kCompanionSeed));
    }
  }

  std::printf("dzbench workload=%s seed=%lld seconds=%g trace=%d\n", workload.c_str(), seed,
              seconds, trace);
  MainPeak peak;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    peak.Begin();
    const double t0 = NowS();
    phases[0]->Setup();
    setup_times.push_back(NowS() - t0);
    peak.End();
  }
  double t0 = NowS();
  for (size_t i = 1; i < phases.size(); ++i) {
    phases[i]->Setup();
  }
  const double companion_setup_s = NowS() - t0;
  t0 = NowS();
  for (auto& p : phases) {
    p->Prepare();
  }
  const double reference_s = NowS() - t0;
  std::printf("set-up of %s: %s over %d repetitions; companions %.2f s once (not set-up); "
              "reference outputs %.2f s (not set-up)\n",
              workload.c_str(), FormatDist(Summarize(setup_times), "s").c_str(), kSetupReps,
              companion_setup_s, reference_s);

  const double main_seconds = trace == 1 ? seconds / 2.0 : seconds;
  Pass untraced = RunPass(phases, main_seconds, false, peak);
  Pass traced;
  if (trace == 1) {
    traced = RunPass(phases, main_seconds, true, peak);
  }
  untraced.e2e["setup_s"] = {Median(setup_times), "s"};
  untraced.e2e["peak_rss_mb"] = {peak.mb, "MB"};
  untraced.notes.push_back(std::string("peak_rss_mb: peak resident set during ") +
                           (peak.scoped ? "the set-ups and slices of " + workload
                                        : std::string("the whole process (the kernel refused "
                                                      "to reset the peak)")));

  std::printf("\n");
  for (const std::string& line : untraced.notes) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("\nend-to-end metrics (untraced%s)\n", trace == 1 ? " pass" : "");
  for (const MetricDecl& m : kEndToEnd) {
    const bool own = std::strcmp(m.workload, workload.c_str()) == 0 ||
                     std::strcmp(m.workload, "all") == 0;
    std::printf("  %-26s %14.6g %-6s %s\n", m.name, ValueOf(untraced.e2e, m.name), m.unit,
                own ? "" : "(companion)");
  }

  MetricMap out;
  if (trace == 1) {
    std::printf("\ntracing overhead on the end-to-end metrics (traced pass vs untraced pass)\n");
    for (const MetricDecl& m : kEndToEnd) {
      if (traced.e2e.count(m.name) == 0) {
        continue;
      }
      const double a = ValueOf(untraced.e2e, m.name);
      const double b = ValueOf(traced.e2e, m.name);
      std::printf("  %-26s %14.6g -> %14.6g %+7.2f%%\n", m.name, a, b, 100.0 * (b / a - 1.0));
    }
    out = traced.layer;
    PrintSelfTimes(traced.spans, out);
    std::printf("\nper-layer metrics (traced pass)\n");
    for (const MetricDecl& m : kPerLayer) {
      std::printf("  %-34s %14.6g %-8s -> %s\n", m.name, ValueOf(out, m.name), m.unit,
                  m.moves);
    }
  } else {
    out = untraced.e2e;
  }

  // Every declared metric must have been measured, and nothing undeclared.
  std::set<std::string> declared;
  if (trace == 1) {
    for (const MetricDecl& m : kPerLayer) {
      declared.insert(m.name);
    }
    for (const char* layer : kLayers) {
      declared.insert(std::string("self_share.") + layer);
    }
  } else {
    for (const MetricDecl& m : kEndToEnd) {
      declared.insert(m.name);
    }
  }
  const long long failed = untraced.failed + (trace == 1 ? traced.failed : 0);
  const long long attempted = untraced.attempted + (trace == 1 ? traced.attempted : 0);
  std::vector<std::string> failures = untraced.failures;
  if (trace == 1) {
    failures.insert(failures.end(), traced.failures.begin(), traced.failures.end());
  }
  bool metrics_ok = true;
  for (const auto& [name, metric] : out) {
    if (declared.count(name) == 0 || !std::isfinite(metric.value)) {
      failures.push_back("metric " + name +
                         " is undeclared or not finite (a tail its sample does not support "
                         "is NaN)");
      metrics_ok = false;
    }
  }
  for (const std::string& name : declared) {
    if (out.count(name) == 0) {
      failures.push_back("metric " + name + " was not measured");
      metrics_ok = false;
    }
  }
  const bool correct = failed == 0 && metrics_ok;
  std::printf("\nchecks: %lld operations attempted, %lld succeeded, %lld failed\n", attempted,
              attempted - failed, failed);
  for (const std::string& f : failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + Num(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dzbench

int main(int argc, char** argv) { return dzbench::Main(argc, argv); }
