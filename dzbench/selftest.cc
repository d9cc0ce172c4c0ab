// Tests of the benchmark's own measurement code (harness.h). run.py runs them
// after every build and refuses to measure when one fails.
#include <sys/mman.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness.h"

namespace dzbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                        \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "%s:%d: expectation failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                        \
      ++g_failures;                                                         \
    }                                                                       \
  } while (0)

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) {
    v.push_back(i);
  }
  EXPECT(Near(Percentile(v, 50.0), 51.0, 1e-12));
  EXPECT(Near(Percentile(v, 90.0), 91.0, 1e-12));
  EXPECT(Near(Percentile({1.0, 2.0}, 50.0), 1.5, 1e-12));
  EXPECT(Percentile({}, 50.0) == 0.0);

  // The highest percentile that leaves at least ten samples above it.
  EXPECT(HighestSupportedPercentile(19) == 0.0);
  EXPECT(HighestSupportedPercentile(20) == 50.0);
  EXPECT(HighestSupportedPercentile(99) == 50.0);
  EXPECT(HighestSupportedPercentile(100) == 90.0);
  EXPECT(HighestSupportedPercentile(999) == 90.0);
  EXPECT(HighestSupportedPercentile(1000) == 99.0);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
  EXPECT(HighestSupportedPercentile(100000) == 99.99);

  const Dist d = Summarize(v);
  EXPECT(d.n == 101 && d.tail_pct == 90.0 && Near(d.tail, 91.0, 1e-12));
  const Dist small = Summarize({3.0, 1.0, 2.0});
  EXPECT(small.tail_pct == 0.0 && small.tail == 3.0);

  // A tail the sample does not support is NaN, not the maximum.
  EXPECT(Near(SupportedPercentile(v, 90.0), 91.0, 1e-12));
  EXPECT(std::isnan(SupportedPercentile(v, 99.0)));
  EXPECT(std::isnan(SupportedPercentile({1.0, 2.0, 3.0}, 50.0)));
}

void TestPeakRssReset() {
  // Touch 64 MiB mapped outside the allocator (whose free lists or quarantine
  // may keep freed memory resident), unmap it, reset: the peak falls back.
  const size_t bytes = size_t{64} << 20;
  void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  EXPECT(block != MAP_FAILED);
  if (block == MAP_FAILED) {
    return;
  }
  for (size_t i = 0; i < bytes; i += 4096) {
    static_cast<char*>(block)[i] = 1;
  }
  const double peak = PeakRssMb();
  EXPECT(peak >= 64.0);
  munmap(block, bytes);
  if (ResetPeakRss()) {
    EXPECT(PeakRssMb() < peak - 32.0);
  } else {
    std::fprintf(stderr, "dzbench_selftest: /proc/self/clear_refs refused; peak is process-wide\n");
  }
}

void TestScheduleIsDeterministic() {
  const auto a = MakeSchedule(42, 100.0, 500, 64, 1.0, 16);
  const auto b = MakeSchedule(42, 100.0, 500, 64, 1.0, 16);
  const auto c = MakeSchedule(43, 100.0, 500, 64, 1.0, 16);
  EXPECT(a.size() == 500 && b.size() == 500 && c.size() == 500);
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_s == b[i].due_s && a[i].variant == b[i].variant && a[i].prompt == b[i].prompt;
  }
  EXPECT(same);
  EXPECT(c[0].due_s != a[0].due_s);
  // Poisson at 100 req/s: 500 arrivals take about 5 s, sorted, in range.
  EXPECT(a.back().due_s > 4.0 && a.back().due_s < 6.0);
  int variant0 = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT(a[i].due_s > 0.0);
    EXPECT(i == 0 || a[i].due_s >= a[i - 1].due_s);
    EXPECT(a[i].variant >= 0 && a[i].variant < 64 && a[i].prompt == static_cast<int>(i % 16));
    variant0 += a[i].variant == 0 ? 1 : 0;
  }
  EXPECT(variant0 > static_cast<int>(a.size()) / 10);  // Zipf: the head is hot
}

void TestOpenLoopTimesFromDueAndMeasuresLateness() {
  // Three requests all due at t=0 on one worker that takes 20 ms each: they
  // finish about 20, 40 and 60 ms after they were due, and the queue wait of
  // the later ones shows up as latency.
  const std::vector<Arrival> burst(3);
  auto sleepy = [](const Arrival&, size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return true;
  };
  const OpenLoopResult r = RunOpenLoop(burst, 1, sleepy);
  EXPECT(r.requests.size() == 3);
  for (size_t i = 0; i < 3; ++i) {
    const double expect = 0.020 * static_cast<double>(i + 1);
    EXPECT(r.requests[i].ok);
    EXPECT(r.requests[i].LatencyS() >= expect - 1e-3);
    EXPECT(r.requests[i].LatencyS() < expect + 0.015);
  }
  EXPECT(r.requests[2].QueueS() >= 0.035);
  EXPECT(r.wall_s >= 0.060 - 1e-3);

  // A generator that starts 50 ms behind its schedule: every request is at
  // least 50 ms late, and its latency includes that.
  std::vector<Arrival> sched(4);
  for (size_t i = 0; i < sched.size(); ++i) {
    sched[i].due_s = 0.001 * static_cast<double>(i);
  }
  auto quick = [](const Arrival&, size_t i) {
    if (i == 3) {
      throw std::runtime_error("request 3 throws");
    }
    return i != 2;
  };
  const OpenLoopResult late = RunOpenLoop(sched, 2, quick, NowS() - 0.050);
  for (const RequestTiming& t : late.requests) {
    EXPECT(t.LatenessS() >= 0.045);
    EXPECT(t.LatencyS() >= t.LatenessS());
  }
  EXPECT(!late.requests[2].ok && !late.requests[3].ok && late.requests[1].ok);

  // On time: a slow schedule is sent close to each due time.
  std::vector<Arrival> paced(5);
  for (size_t i = 0; i < paced.size(); ++i) {
    paced[i].due_s = 0.01 * static_cast<double>(i + 1);
  }
  const OpenLoopResult on_time = RunOpenLoop(paced, 2, quick);
  for (const RequestTiming& t : on_time.requests) {
    // sleep_for may wake a few nanoseconds early after rounding to its tick.
    EXPECT(t.LatenessS() >= -1e-6 && t.LatenessS() < 0.020);
  }
}

void TestGoodputSearch() {
  // p90 doubles with every step: 10, 20, 40, 80, 160 ms at 10..160 req/s. With
  // a 100 ms limit the knee lies between 80 and 160 req/s, interpolated from
  // (80, 80 ms) to (160, 160 ms) -> 100.
  const std::vector<double> ladder = {10, 20, 40, 80, 160};
  std::vector<size_t> served;
  auto doubling = [&](size_t i) {
    served.push_back(i);
    return 10.0 * std::pow(2.0, static_cast<double>(i));
  };
  int last = -2;
  EXPECT(Near(SearchGoodput(ladder, 100, -1, doubling, &last), 100.0, 1e-9));
  EXPECT(last == 3 && served.size() <= 3);  // bisection
  // Walking from the previous knee costs two steps when it has not moved.
  served.clear();
  EXPECT(Near(SearchGoodput(ladder, 100, 3, doubling, &last), 100.0, 1e-9));
  EXPECT(last == 3 && served == std::vector<size_t>({3, 4}));
  // From below it walks up, from above it walks down; each step is served once.
  served.clear();
  EXPECT(Near(SearchGoodput(ladder, 100, 1, doubling, &last), 100.0, 1e-9));
  EXPECT(last == 3 && served == std::vector<size_t>({1, 2, 3, 4}));
  served.clear();
  EXPECT(Near(SearchGoodput(ladder, 100, 4, doubling, &last), 100.0, 1e-9));
  EXPECT(last == 3 && served == std::vector<size_t>({4, 3}));
  // Never fails: the top rate.
  EXPECT(Near(SearchGoodput(ladder, 1000, 2, doubling, &last), 160.0, 1e-9) && last == 4);
  // Fails at once: from (0, 0) to (10, 200 ms) -> 5.
  auto slow = [](size_t) { return 200.0; };
  EXPECT(Near(SearchGoodput(ladder, 100, -1, slow, &last), 5.0, 1e-9) && last == -1);
  // Exactly at the limit passes; a failed request (infinite p90) fails its
  // step without producing NaN, and the passing rate stands.
  auto cliff = [](size_t i) { return i <= 1 ? 100.0 : INFINITY; };
  EXPECT(Near(SearchGoodput(ladder, 100, -1, cliff, &last), 20.0, 1e-9) && last == 1);
}

Span MakeSpan(const char* name, int64_t start_ms, int64_t end_ms, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start_ms * 1000000;
  s.end_ns = end_ms * 1000000;
  s.parent = parent;
  return s;
}

void TestSelfTimes() {
  std::vector<Span> spans = {
      MakeSpan("sim.window", 0, 100, -1),        // 0: root
      MakeSpan("cluster.route", 0, 10, 0),       // 1
      MakeSpan("serving.shard", 10, 60, 0),      // 2: parallel shards overlap
      MakeSpan("serving.shard", 20, 70, 0),      // 3
      MakeSpan("cluster.merge", 90, 130, 0),     // 4: runs past the parent; clipped
      MakeSpan("serving.inner", 15, 25, 2),      // 5: grandchild of the root
      MakeSpan("serving.inner", 30, 40, 2),      // 6
  };
  const std::vector<double> self = SelfTimes(spans);
  // Root: 100 ms minus the union [0,70) + [90,100) = 20 ms.
  EXPECT(Near(self[0], 0.020, 1e-12));
  EXPECT(Near(self[1], 0.010, 1e-12));
  EXPECT(Near(self[2], 0.030, 1e-12));  // 50 - 10 - 10
  EXPECT(Near(self[3], 0.050, 1e-12));
  EXPECT(Near(self[4], 0.040, 1e-12));
  EXPECT(Near(self[5], 0.010, 1e-12));
  const auto totals = TotalsByName(spans);
  EXPECT(totals.at("serving.shard").calls == 2);
  EXPECT(Near(totals.at("serving.shard").self_s, 0.080, 1e-12));
  EXPECT(LayerOf("serving.shard") == "serving" && LayerOf("plain") == "plain");

  // Recording: nested ScopedSpans get their parent from the thread, an
  // explicit parent crosses threads, nothing is recorded while disabled.
  Tracer& tracer = Tracer::Get();
  tracer.Take();
  { const ScopedSpan off("off.span"); }
  EXPECT(tracer.Take().empty());
  tracer.SetEnabled(true);
  {
    ScopedSpan outer("a.outer");
    { const ScopedSpan inner("a.inner", 7); }
    const int parent = outer.id();
    std::thread t([parent] { const ScopedSpan other("b.thread", 0, parent); });
    t.join();
    outer.End();
    const ScopedSpan after("a.after");
  }
  tracer.SetEnabled(false);
  const std::vector<Span> rec = tracer.Take();
  EXPECT(rec.size() == 4);
  if (rec.size() == 4) {
    EXPECT(rec[0].parent == -1 && rec[1].parent == 0 && rec[1].group == 7);
    EXPECT(rec[2].parent == 0);
    EXPECT(rec[3].parent == -1);  // opened after outer.End()
    EXPECT(rec[1].start_ns >= rec[0].start_ns && rec[1].end_ns <= rec[0].end_ns);
  }
}

}  // namespace
}  // namespace dzbench

int main() {
  dzbench::TestPercentiles();
  dzbench::TestPeakRssReset();
  dzbench::TestScheduleIsDeterministic();
  dzbench::TestOpenLoopTimesFromDueAndMeasuresLateness();
  dzbench::TestGoodputSearch();
  dzbench::TestSelfTimes();
  if (dzbench::g_failures > 0) {
    std::fprintf(stderr, "dzbench_selftest: %d expectation(s) failed\n", dzbench::g_failures);
    return 1;
  }
  std::fprintf(stderr, "dzbench_selftest: all tests passed\n");
  return 0;
}
