// variant_serve: the real-arithmetic serving path. A population of variants is
// registered one at a time from serialized artifact bytes, then served through
// DeltaZipService::Generate (the decoupled x·w_baseᵀ + x·Δ̃ᵀ path) under
// open-loop Poisson arrivals with Zipf variant popularity: the hot variants
// fit in the CPU caches, the tail does not. Worker threads take requests from
// one FCFS queue.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "phases.h"
#include "src/compress/serialize.h"
#include "src/core/deltazip.h"
#include "src/train/finetune.h"

namespace dzbench {
namespace {

struct ServeScale {
  dz::ModelConfig config;
  int pretrain_steps = 40;
  int finetune_steps = 30;
  int distinct = 0;     // distinct fine-tunes made in set-up
  int population = 64;  // registered variants (copies of the distinct ones)
  int prompts = 0;      // prompt pool size
  int prompt_min = 0, prompt_max = 0, output_min = 0, output_max = 0;
  double zipf_alpha = 1.0;
  double fixed_rate = 0.0;   // req/s, about a third of the measured capacity
  int segment_requests = 0;  // one fixed-rate segment; its p90 has ten samples beyond
  std::vector<double> ladder;  // req/s, geometric
  int step_requests = 0;       // one goodput ladder step; its p90 has ten samples beyond
  double limit_ms = 0.0;       // p90 latency limit for goodput
  int probe_prompts = 8;
  int kernel_reps = 0;
};

// The goodput ladder replays one fixed arrival trace, scaled to each step's
// rate, in every run: the steps of a search share their bursts, so latency
// grows with the rate, and goodput compares code and machines rather than the
// luck of a Poisson draw near saturation. The fixed-rate traffic comes from
// the workload seed.
constexpr uint64_t kLadderTraceSeed = 0x1add3;

std::vector<double> Geometric(double first, double ratio, int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(first * std::pow(ratio, i));
  }
  return out;
}

// The companion serves the same model and traffic shape as the main phase,
// from fewer distinct fine-tunes. Both do a round every slice; the main phase
// fills its share of the time budget with more fixed-rate segments.
ServeScale ScaleFor(Scale scale) {
  ServeScale s;
  s.config = dz::ModelConfig::Small();
  s.prompt_min = 4;
  s.prompt_max = 16;
  s.output_min = 2;
  s.output_max = 14;
  s.fixed_rate = 60.0;
  s.segment_requests = 100;
  s.ladder = Geometric(30.0, 1.15, 24);
  s.step_requests = 100;
  s.limit_ms = 60.0;
  if (scale == Scale::kMain) {
    s.distinct = 4;
    s.prompts = 16;
    s.kernel_reps = 200;
  } else {
    s.pretrain_steps = 20;
    s.finetune_steps = 10;
    s.distinct = 2;
    s.prompts = 8;
    s.kernel_reps = 50;
  }
  return s;
}

struct Prompt {
  std::vector<int> tokens;
  int max_new = 0;
};

int Workers() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores - 1, 1, 3);
}

class ServePhase : public Phase {
 public:
  ServePhase(Scale scale, uint64_t seed)
      : scale_(scale), s_(ScaleFor(scale)), seed_(MixSeed(seed, 0x5e7e)) {}

  const char* name() const override { return "variant_serve"; }

  void Setup() override {
    base_ = PretrainBase(s_.config, s_.pretrain_steps, seed_);
    tasks_ = MakeTasks(s_.config, seed_);
    artifacts_.clear();
    for (int k = 0; k < s_.distinct; ++k) {
      const uint64_t vseed = MixSeed(seed_, 2000 + static_cast<uint64_t>(k));
      const TaskMix mix(Raw(tasks_), kMixWeights);
      dz::FineTuneConfig ft;
      ft.steps = s_.finetune_steps;
      ft.lr = 2e-3f;
      ft.freeze_embeddings = true;
      dz::Rng rng(vseed);
      dz::Transformer tuned(base_->weights());
      dz::FineTuneFmt(tuned, mix, ft, rng);
      std::vector<std::vector<int>> calibration;
      for (int i = 0; i < 12; ++i) {
        calibration.push_back(mix.Sample(rng).tokens);
      }
      const dz::CompressedDelta delta =
          dz::DeltaCompress(base_->weights(), tuned.weights(), calibration, ArtifactConfig());
      artifacts_.push_back(dz::GdeflateCompress(dz::EncodeDelta(delta)));
    }
    // Prompt and output lengths come from a fixed grid, so every seed serves
    // the same length mix; the seed picks the tokens and the request order.
    prompts_.clear();
    dz::Rng rng(MixSeed(seed_, 3));
    const TaskMix mix(Raw(tasks_), kMixWeights);
    const int prompt_span = s_.prompt_max - s_.prompt_min + 1;
    const int output_span = s_.output_max - s_.output_min + 1;
    for (int p = 0; p < s_.prompts; ++p) {
      Prompt prompt;
      const int len = s_.prompt_min + p * prompt_span / s_.prompts;
      while (static_cast<int>(prompt.tokens.size()) < len) {
        for (int t : mix.Sample(rng).tokens) {
          prompt.tokens.push_back(t);
        }
      }
      prompt.tokens.resize(static_cast<size_t>(len));
      // Output lengths walk the grid with a stride coprime to the pool size,
      // so long prompts do not always get long outputs.
      const int out = s_.output_min + (p * 5 % s_.prompts) * output_span / s_.prompts;
      prompt.max_new = std::min(s_.config.max_seq - len, out);
      prompts_.push_back(std::move(prompt));
    }
  }

  // Reference outputs for every (distinct fine-tune, prompt) pair, computed on
  // one thread: the decoupled output each served response must equal, and the
  // merged-weights (ApplyTo) output the token-match rate is measured against.
  void Prepare() override {
    dz::DeltaZipService service(dz::Transformer(base_->weights()), dz::DeltaZipOptions{});
    ref_decoupled_.assign(artifacts_.size(), {});
    ref_merged_.assign(artifacts_.size(), {});
    for (size_t k = 0; k < artifacts_.size(); ++k) {
      dz::CompressedDelta delta;
      setup_ok_ &= dz::DecodeDelta(dz::GdeflateDecompress(artifacts_[k]), delta);
      const dz::Transformer merged(delta.ApplyTo(base_->weights()));
      const int id = service.RegisterCompressedDelta(std::move(delta));
      for (const Prompt& p : prompts_) {
        ref_decoupled_[k].push_back(service.Generate(id, p.tokens, p.max_new));
        ref_merged_[k].push_back(merged.GenerateGreedy(p.tokens, p.max_new));
      }
    }
  }

  void Begin(bool traced, double seconds) override;
  void Slice(int k, int slices) override;
  PhaseResult End(const std::vector<Span>& spans) override;

 private:
  // Registers the population from artifact bytes; appends per-load ms.
  void Load(dz::DeltaZipService& service);
  // Serves one open-loop schedule; counts token matches, checks outputs and
  // records every request's Generate time, tokens and generator lateness.
  OpenLoopResult Serve(const std::vector<Arrival>& schedule, const char* span_name);
  void Probe();
  void FixedSegment();
  // One search of the goodput ladder; appends its goodput.
  void SearchGoodputLadder();
  // A round: register the population afresh, serve a fixed-rate segment
  // (even rounds) or search the goodput ladder (odd rounds), then, in the main
  // phase only, more segments until its share of the time budget is used;
  // release the population.
  void Round(int k, double deadline_s);

  struct Pass {
    bool traced = false;
    double seconds = 0.0;  // main: the pass's time budget
    double wall_s = 0.0;   // time spent in rounds so far
    PhaseResult r;
    std::unique_ptr<dz::DeltaZipService> service;
    int rounds = 0;
    std::vector<double> load_ms;
    std::vector<double> e2e_ms, queue_ms;  // every fixed-rate request
    // Per fixed-rate segment. The end-to-end figures are medians over
    // segments, so a burst of host noise that slows one segment does not
    // decide a tail.
    std::vector<double> segment_p50s, segment_p90s;
    // Every served request, fixed-rate and ladder: the generator and Generate
    // do the same work in both, and the tails need the samples.
    std::vector<double> lateness_ms, generate_ms;
    long long tokens = 0;
    double busy_s = 0.0;          // summed service time of the fixed-rate segments
    double segment_wall_s = 0.0;  // summed wall time of the fixed-rate segments
    long long served_tokens = 0;
    long long matched_tokens = 0;
    std::vector<double> goodputs;  // one per ladder search
    int last_pass = -1;            // the previous search's highest passing step
    int ladder_steps = 0;          // steps served over all searches
  };

  Scale scale_;
  ServeScale s_;
  uint64_t seed_;
  std::unique_ptr<dz::Transformer> base_;
  std::vector<std::unique_ptr<dz::Task>> tasks_;
  std::vector<dz::ByteBuffer> artifacts_;
  std::vector<Prompt> prompts_;
  std::vector<std::vector<std::vector<int>>> ref_decoupled_;  // [distinct][prompt]
  std::vector<std::vector<std::vector<int>>> ref_merged_;
  bool setup_ok_ = true;
  Pass pass_;
};

void ServePhase::Load(dz::DeltaZipService& service) {
  Pass& p = pass_;
  for (int i = 0; i < s_.population; ++i) {
    const auto group = static_cast<uint64_t>(i);
    ++p.r.attempted;
    const double t0 = NowS();
    const ScopedSpan load("serve.load", group);
    const dz::ByteBuffer& bytes = artifacts_[static_cast<size_t>(i % s_.distinct)];
    dz::ByteBuffer encoded;
    {
      const ScopedSpan s("compress.gdeflate_decompress", group);
      encoded = dz::GdeflateDecompress(bytes);
    }
    dz::CompressedDelta delta;
    bool ok = false;
    {
      const ScopedSpan s("compress.decode_delta", group);
      ok = dz::DecodeDelta(encoded, delta);
    }
    int id = -1;
    if (ok) {
      const ScopedSpan s("core.register", group);
      id = service.RegisterCompressedDelta(std::move(delta));
    }
    p.load_ms.push_back((NowS() - t0) * 1e3);
    if (!ok || id != i) {
      p.r.Fail("variant_serve: loading variant " + std::to_string(i) + " failed");
    }
  }
}

OpenLoopResult ServePhase::Serve(const std::vector<Arrival>& schedule,
                                 const char* span_name) {
  Pass& p = pass_;
  const dz::DeltaZipService& service = *p.service;
  std::vector<double> gen_start(schedule.size(), 0.0);
  std::vector<double> gen_end(schedule.size(), 0.0);
  std::atomic<long long> served{0};
  std::atomic<long long> matched{0};
  auto handler = [&](const Arrival& a, size_t i) {
    const Prompt& prompt = prompts_[static_cast<size_t>(a.prompt)];
    const size_t k = static_cast<size_t>(a.variant % s_.distinct);
    gen_start[i] = NowS();
    const std::vector<int> out = service.Generate(a.variant, prompt.tokens, prompt.max_new);
    gen_end[i] = NowS();
    const std::vector<int>& merged = ref_merged_[k][static_cast<size_t>(a.prompt)];
    long long same = 0;
    for (size_t t = 0; t < out.size() && t < merged.size(); ++t) {
      same += out[t] == merged[t] ? 1 : 0;
    }
    served.fetch_add(static_cast<long long>(std::max(out.size(), merged.size())));
    matched.fetch_add(same);
    return out == ref_decoupled_[k][static_cast<size_t>(a.prompt)];
  };
  const double t0 = NowS();
  OpenLoopResult res = RunOpenLoop(schedule, Workers(), handler, t0);
  p.served_tokens += served.load();
  p.matched_tokens += matched.load();
  p.r.attempted += static_cast<long long>(schedule.size());
  for (size_t i = 0; i < res.requests.size(); ++i) {
    if (!res.requests[i].ok) {
      p.r.Fail(std::string("variant_serve: a response of ") + span_name +
               " differs from the reference");
    }
    p.generate_ms.push_back((gen_end[i] - gen_start[i]) * 1e3);
    p.lateness_ms.push_back(res.requests[i].LatenessS() * 1e3);
    const Prompt& prompt = prompts_[static_cast<size_t>(schedule[i].prompt)];
    p.tokens += static_cast<long long>(prompt.tokens.size()) + prompt.max_new;
  }
  if (p.traced) {
    // Spans are added after the schedule ran, so that recording costs nothing
    // while requests are in flight. A request runs from when it was due; its
    // queue wait and its Generate call are children.
    Tracer& tracer = Tracer::Get();
    const int phase = tracer.Add(span_name, ToNs(t0), ToNs(t0 + res.wall_s), CurrentSpan(), 0);
    for (size_t i = 0; i < res.requests.size(); ++i) {
      const RequestTiming& q = res.requests[i];
      const uint64_t group = (static_cast<uint64_t>(schedule[i].variant) << 32) | i;
      const int req = tracer.Add("serve.request", ToNs(t0 + q.due_s), ToNs(t0 + q.done_s),
                                 phase, group);
      tracer.Add("driver.queue", ToNs(t0 + q.sent_s), ToNs(t0 + q.dequeued_s), req, group);
      tracer.Add("core.generate", ToNs(gen_start[i]), ToNs(gen_end[i]), req, group);
    }
  }
  return res;
}

// Decoupled versus base-model Generate on a probe set of prompts, and one
// decode position's linear layers at m=1: base GEMMs versus compressed-delta
// GEMMs (QuantGemmNT / Sparse24GemmNT behind CompressedDeltaLayer::MatmulNT).
void ServePhase::Probe() {
  Pass& p = pass_;
  const dz::DeltaZipService& service = *p.service;
  double decoupled_s = 0.0;
  double base_s = 0.0;
  for (int i = 0; i < s_.probe_prompts && i < s_.prompts; ++i) {
    const Prompt& prompt = prompts_[static_cast<size_t>(i)];
    double t0 = NowS();
    {
      const ScopedSpan s("core.generate", static_cast<uint64_t>(i));
      service.Generate(0, prompt.tokens, prompt.max_new);
    }
    decoupled_s += NowS() - t0;
    t0 = NowS();
    {
      const ScopedSpan s("core.generate_base", static_cast<uint64_t>(i));
      service.Generate(-1, prompt.tokens, prompt.max_new);
    }
    base_s += NowS() - t0;
  }
  p.r.layer["serve.delta_overhead"] = {decoupled_s / base_s, "ratio"};

  const dz::CompressedDelta& delta = service.delta(0);
  const auto base_layers = service.base().weights().LinearLayers();
  dz::Rng rng(MixSeed(seed_, 4));
  std::vector<const dz::Matrix*> weights;
  std::vector<dz::Matrix> inputs;
  for (const auto& layer : delta.layers) {
    for (const auto& b : base_layers) {
      if (b.name == layer.name) {
        weights.push_back(b.weight);
        inputs.push_back(dz::Matrix::Random(1, b.weight->cols(), rng, 1.0f));
      }
    }
  }
  double sink = 0.0;
  double t0 = NowS();
  {
    const ScopedSpan s("tensor.gemm_nt_m1");
    for (int rep = 0; rep < s_.kernel_reps; ++rep) {
      for (size_t l = 0; l < weights.size(); ++l) {
        sink += dz::MatmulNT(inputs[l], *weights[l]).at(0, 0);
      }
    }
  }
  const double base_us = (NowS() - t0) / s_.kernel_reps * 1e6;
  t0 = NowS();
  {
    const ScopedSpan s("compress.delta_gemm_m1");
    for (int rep = 0; rep < s_.kernel_reps; ++rep) {
      for (size_t l = 0; l < weights.size(); ++l) {
        sink += delta.layers[l].MatmulNT(inputs[l]).at(0, 0);
      }
    }
  }
  const double delta_us = (NowS() - t0) / s_.kernel_reps * 1e6;
  if (!std::isfinite(sink)) {
    p.r.Fail("variant_serve: m=1 kernel probe produced a non-finite value");
  }
  p.r.layer["tensor.gemm_nt_m1_us"] = {base_us, "us"};
  p.r.layer["compress.delta_gemm_m1_us"] = {delta_us, "us"};
}

void ServePhase::FixedSegment() {
  Pass& p = pass_;
  const auto seg = static_cast<uint64_t>(p.segment_p50s.size());
  const std::vector<Arrival> schedule =
      MakeSchedule(MixSeed(seed_, 10 + seg), s_.fixed_rate, s_.segment_requests,
                   s_.population, s_.zipf_alpha, s_.prompts);
  const OpenLoopResult res = Serve(schedule, "serve.fixed_rate");
  std::vector<double> e2e;
  for (const RequestTiming& q : res.requests) {
    e2e.push_back(q.ok ? q.LatencyS() * 1e3 : std::numeric_limits<double>::infinity());
    p.queue_ms.push_back(q.QueueS() * 1e3);
    p.busy_s += q.ServiceS();
  }
  p.e2e_ms.insert(p.e2e_ms.end(), e2e.begin(), e2e.end());
  p.segment_p50s.push_back(SupportedPercentile(e2e, 50.0));
  p.segment_p90s.push_back(SupportedPercentile(e2e, 90.0));
  p.segment_wall_s += res.wall_s;
}

// Goodput: the highest rate on a fixed geometric ladder whose p90 latency
// stays under the limit (failed requests count as over it), interpolated
// between that step and the next (SearchGoodput). The first search of a pass
// bisects the ladder; later ones walk from the previous knee.
void ServePhase::SearchGoodputLadder() {
  Pass& p = pass_;
  const std::vector<Arrival> unit = MakeSchedule(kLadderTraceSeed, 1.0, s_.step_requests,
                                                 s_.population, s_.zipf_alpha, s_.prompts);
  auto p90_at = [&](size_t i) {
    std::vector<Arrival> schedule = unit;
    for (Arrival& a : schedule) {
      a.due_s /= s_.ladder[i];
    }
    const OpenLoopResult res = Serve(schedule, "serve.ladder_step");
    std::vector<double> lat;
    for (const RequestTiming& q : res.requests) {
      lat.push_back(q.ok ? q.LatencyS() * 1e3 : std::numeric_limits<double>::infinity());
    }
    ++p.ladder_steps;
    return Percentile(lat, 90.0);
  };
  const int start = p.goodputs.empty() ? -1 : p.last_pass;
  p.goodputs.push_back(SearchGoodput(s_.ladder, s_.limit_ms, start, p90_at, &p.last_pass));
}

void ServePhase::Round(int k, double deadline_s) {
  Pass& p = pass_;
  const double t0 = NowS();
  const ScopedSpan root("serve.round", 0, -1);
  // Every round serves a population registered afresh from the artifact bytes
  // and releases it at the end, so that no variant stays resident while the
  // other phases' slices run.
  p.service = std::make_unique<dz::DeltaZipService>(dz::Transformer(base_->weights()),
                                                    dz::DeltaZipOptions{});
  Load(*p.service);
  if (p.traced && k == 0) {
    Probe();
  }
  if (k % 2 == 0) {
    FixedSegment();
  } else {
    SearchGoodputLadder();
  }
  const double segment_s = s_.segment_requests / s_.fixed_rate;
  while (p.wall_s + NowS() - t0 + segment_s < deadline_s) {
    FixedSegment();
  }
  p.service.reset();
  ++p.rounds;
  p.wall_s += NowS() - t0;
}

void ServePhase::Begin(bool traced, double seconds) {
  pass_ = Pass();
  pass_.traced = traced;
  pass_.seconds = seconds;
  if (!setup_ok_) {
    pass_.r.Fail("variant_serve: set-up artifacts did not decode");
  }
}

void ServePhase::Slice(int k, int slices) {
  // The main phase keeps a cumulative deadline, as in pipeline.cc.
  Round(k, scale_ == Scale::kMain ? pass_.seconds * (k + 1) / slices : 0.0);
}

PhaseResult ServePhase::End(const std::vector<Span>& spans) {
  Pass& p = pass_;
  PhaseResult r = std::move(p.r);
  const bool main = scale_ == Scale::kMain;
  const double goodput = Median(p.goodputs);
  const Dist load = Summarize(p.load_ms);
  const Dist e2e = Summarize(p.e2e_ms);
  r.e2e["load_ms_p50"] = {load.p50, "ms"};
  r.e2e["load_ms_p90"] = {SupportedPercentile(p.load_ms, 90.0), "ms"};
  r.e2e["e2e_ms_p50"] = {Median(p.segment_p50s), "ms"};
  r.e2e["e2e_ms_p90"] = {Median(p.segment_p90s), "ms"};
  r.e2e["goodput_rps"] = {goodput, "req/s"};
  r.e2e["serve_token_match"] = {
      static_cast<double>(p.matched_tokens) / static_cast<double>(p.served_tokens), "ratio"};

  const Dist lateness = Summarize(p.lateness_ms);
  char line[320];
  std::snprintf(line, sizeof(line), "%s %s: %d rounds, each loading %d variants: load %s",
                name(), main ? "main" : "companion", p.rounds, s_.population,
                FormatDist(load, "ms").c_str());
  r.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "  fixed rate %.0f req/s on %d workers, %zu segments of %d requests: e2e p50 "
                "%.4g ms, p90 %.4g ms (medians over segments; pooled %s); generator lateness "
                "over every request %s",
                s_.fixed_rate, Workers(), p.segment_p50s.size(), s_.segment_requests,
                Median(p.segment_p50s), Median(p.segment_p90s), FormatDist(e2e, "ms").c_str(),
                FormatDist(lateness, "ms").c_str());
  r.notes.push_back(line);
  std::string ladder;
  for (double g : p.goodputs) {
    std::snprintf(line, sizeof(line), " %.1f", g);
    ladder += line;
  }
  std::snprintf(line, sizeof(line),
                "  goodput (p90 limit %.0f ms, ladder %.0f..%.0f req/s x%.2f, %d requests a "
                "step, %d steps served): median %.1f req/s of searches",
                s_.limit_ms, s_.ladder.front(), s_.ladder.back(), s_.ladder[1] / s_.ladder[0],
                s_.step_requests, p.ladder_steps, goodput);
  r.notes.push_back(line + ladder);

  if (p.traced) {
    const auto totals = TotalsByName(spans);
    auto mean_ms = [&](const char* n) {
      const auto it = totals.find(n);
      return it == totals.end() ? 0.0 : it->second.total_s / it->second.calls * 1e3;
    };
    r.layer["compress.lossless_decode_ms"] = {mean_ms("compress.gdeflate_decompress"), "ms"};
    r.layer["compress.decode_ms"] = {mean_ms("compress.decode_delta"), "ms"};
    r.layer["core.register_ms"] = {mean_ms("core.register"), "ms"};
    r.layer["core.generate_ms_p50"] = {SupportedPercentile(p.generate_ms, 50.0), "ms"};
    r.layer["core.generate_ms_p90"] = {SupportedPercentile(p.generate_ms, 90.0), "ms"};
    double gen_total = 0.0;
    for (double g : p.generate_ms) {
      gen_total += g;
    }
    r.layer["serve.ms_per_token"] = {gen_total / static_cast<double>(p.tokens), "ms"};
    r.layer["serve.worker_busy"] = {p.busy_s / (p.segment_wall_s * Workers()), "ratio"};
    r.layer["driver.queue_ms_p50"] = {SupportedPercentile(p.queue_ms, 50.0), "ms"};
    r.layer["driver.queue_ms_p90"] = {SupportedPercentile(p.queue_ms, 90.0), "ms"};
    r.layer["driver.lateness_ms_p99"] = {SupportedPercentile(p.lateness_ms, 99.0), "ms"};
  }
  return r;
}

}  // namespace

std::unique_ptr<Phase> MakeServePhase(Scale scale, uint64_t seed) {
  return std::make_unique<ServePhase>(scale, seed);
}

}  // namespace dzbench
