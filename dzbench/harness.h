// Measurement harness of the repository benchmark: clocks, distribution
// summaries, in-memory spans with self-time attribution, the open-loop load
// generator and the goodput search. Nothing here knows about DeltaZip;
// the phases in pipeline.cc, serve.cc and sim.cc call into the program and
// use these helpers around the calls.
#ifndef DZBENCH_HARNESS_H_
#define DZBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dzbench {

// ---- clocks -----------------------------------------------------------------

// Monotonic seconds (steady_clock).
double NowS();
// Process CPU seconds, user + system, over all threads.
double CpuS();
// Returns freed heap pages to the kernel (glibc), then resets the peak
// resident set the kernel keeps for this process to the current resident set
// (writes 5 to /proc/self/clear_refs). Returns false when
// the kernel refuses; PeakRssMb then keeps reporting the peak of the whole
// process.
bool ResetPeakRss();
// Peak resident set since the last ResetPeakRss (VmHWM), in MiB.
double PeakRssMb();

// ---- distributions ------------------------------------------------------------

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample; 0 when
// the sample is empty.
double Percentile(std::vector<double> values, double p);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

// The highest of 50, 90, 99, 99.9 and 99.99 that leaves at least ten samples
// above it in a sample of n, or 0 when even the median does not (n < 20).
double HighestSupportedPercentile(size_t n);
// Percentile(values, p) when the sample supports p (HighestSupportedPercentile
// is at least p), NaN otherwise: a metric never reports a tail that one or two
// samples decide.
double SupportedPercentile(const std::vector<double>& values, double p);

// A timing reported the way the benchmark prints every timing: the median, the
// highest percentile the sample supports, and the sample count.
struct Dist {
  size_t n = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  // HighestSupportedPercentile(n); 0 = none
  double tail = 0.0;      // value at tail_pct, or the maximum when tail_pct <= 50
};
Dist Summarize(const std::vector<double>& values);
// "p50 1.23 ms, p99 4.56 ms (n=1234)".
std::string FormatDist(const Dist& d, const char* unit);

// ---- spans ----------------------------------------------------------------------

// One timed call, recorded by the benchmark around a call into the program.
// Spans of one request or one variant share `group`.
struct Span {
  const char* name = "";  // "<layer>.<call>", e.g. "train.finetune"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  uint64_t group = 0;
};

// Collects spans in memory while enabled. Recording takes a mutex: spans are
// placed around whole calls (microseconds to seconds), never inside loops.
class Tracer {
 public:
  static Tracer& Get();
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Opens a span now; returns its id, or -1 when disabled.
  int Begin(const char* name, uint64_t group, int parent);
  void End(int id);
  // Records an already-finished interval (e.g. a queue wait).
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent, uint64_t group);
  // Removes and returns every span recorded so far.
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// A NowS() value in the nanoseconds of Span.
int64_t ToNs(double seconds);

// RAII span. The parent defaults to the innermost open span of this thread.
class ScopedSpan {
 public:
  static constexpr int kCurrentParent = -2;
  explicit ScopedSpan(const char* name, uint64_t group = 0, int parent = kCurrentParent);
  ~ScopedSpan() { End(); }
  // Closes the span now (idempotent), e.g. before the spans are taken.
  void End();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_ = -1;
  int saved_current_ = -1;
};

// The span id ScopedSpan would use as parent on this thread.
int CurrentSpan();

// Self time of every span, in seconds: its duration minus the part of its
// interval covered by the union of its direct children (children may run in
// parallel on other threads and may overlap each other; they are clipped to
// the parent's interval).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// "train.finetune" -> "train".
std::string LayerOf(const char* span_name);

// Per span name: call count, total and self seconds.
struct SpanTotals {
  long long calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

// ---- open-loop load generator ----------------------------------------------------

// One scheduled request: when it is due, relative to the start of its phase,
// and which (variant, prompt) it asks for.
struct Arrival {
  double due_s = 0.0;
  int variant = 0;
  int prompt = 0;
};

// `n_requests` Poisson arrivals at `rate` req/s, the first due after one
// exponential gap; variants drawn by Zipf(alpha) popularity over `n_variants`
// (rank = id). Prompts cycle through the `n_prompts` pool in order, so every
// schedule carries the same prompt mix. Deterministic for a given seed.
std::vector<Arrival> MakeSchedule(uint64_t seed, double rate, int n_requests, int n_variants,
                                  double zipf_alpha, int n_prompts);

// What happened to one request, in seconds from the phase start.
struct RequestTiming {
  double due_s = 0.0;
  double sent_s = 0.0;      // generator enqueued it
  double dequeued_s = 0.0;  // a worker took it
  double done_s = 0.0;
  bool ok = false;
  double LatencyS() const { return done_s - due_s; }
  double LatenessS() const { return sent_s - due_s; }
  double QueueS() const { return dequeued_s - sent_s; }
  double ServiceS() const { return done_s - dequeued_s; }
};

struct OpenLoopResult {
  std::vector<RequestTiming> requests;  // aligned with the schedule
  double wall_s = 0.0;                  // phase start to last completion
};

// Replays `schedule` open-loop: the calling thread enqueues each request when
// it is due into one FCFS queue, `workers` threads serve it through `handler`
// (returning false or throwing marks the request failed). Latency is timed
// from the due time, so a stalled generator shows up as latency and as
// lateness.
// `phase_start_s` (a NowS() value) defaults to now; passing an earlier value
// makes every request late by the difference.
OpenLoopResult RunOpenLoop(const std::vector<Arrival>& schedule, int workers,
                           const std::function<bool(const Arrival&, size_t)>& handler,
                           double phase_start_s = -1.0);

// ---- goodput -------------------------------------------------------------------

// One search of a fixed ladder of increasing rates for its knee: the highest
// step whose p90 latency stays under `limit` and the next step, which breaks
// it. `p90_at(i)` serves step i and returns its p90. With `start` < 0 the
// search bisects the whole ladder; otherwise it walks from step `start` (the
// last passing step of the previous search) up until a step fails, or down
// until one passes, which costs two steps when the knee has not moved.
// Returns the rate interpolated linearly between the two steps to where p90
// meets the limit (from rate 0 at zero latency when even step 0 fails; the top
// rate when no step fails) and sets `*last_pass` to the passing step, or -1.
double SearchGoodput(const std::vector<double>& ladder, double limit, int start,
                     const std::function<double(size_t)>& p90_at, int* last_pass);

}  // namespace dzbench

#endif  // DZBENCH_HARNESS_H_
