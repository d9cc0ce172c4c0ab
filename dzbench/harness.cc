#include "harness.h"

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <thread>

#include "src/util/rng.h"

namespace dzbench {

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ToNs(double seconds) { return static_cast<int64_t>(seconds * 1e9); }

double CpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  // Hand freed heap pages back first, so the reset peak starts from live
  // memory rather than from what earlier phases freed.
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) != 1) {
        kib = -1;
      }
    }
    std::fclose(f);
    if (kib >= 0) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) { return Percentile(values, 50.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly above the p-th percentile: floor(n * (1 - p/100)),
    // computed in integer tenths of a basis point to avoid rounding at the edge.
    const long long above = static_cast<long long>(n) *
                            (1000000LL - static_cast<long long>(p * 10000.0 + 0.5)) / 1000000LL;
    if (above >= 10) {
      best = p;
    }
  }
  return best;
}

double SupportedPercentile(const std::vector<double>& values, double p) {
  return HighestSupportedPercentile(values.size()) >= p ? Percentile(values, p) : std::nan("");
}

Dist Summarize(const std::vector<double>& values) {
  Dist d;
  d.n = values.size();
  d.p50 = Percentile(values, 50.0);
  d.tail_pct = HighestSupportedPercentile(values.size());
  d.tail = Percentile(values, d.tail_pct > 50.0 ? d.tail_pct : 100.0);
  return d;
}

std::string FormatDist(const Dist& d, const char* unit) {
  char buf[160];
  if (d.tail_pct > 50.0) {
    std::snprintf(buf, sizeof(buf), "p50 %.4g %s, p%g %.4g %s (n=%zu)", d.p50, unit,
                  d.tail_pct, d.tail, unit, d.n);
  } else {
    std::snprintf(buf, sizeof(buf), "p50 %.4g %s, max %.4g %s (n=%zu)", d.p50, unit, d.tail,
                  unit, d.n);
  }
  return buf;
}

// ---- spans ----------------------------------------------------------------------

namespace {

thread_local int tl_current_span = -1;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const char* name, uint64_t group, int parent) {
  if (!enabled()) {
    return -1;
  }
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.end_ns = s.start_ns;
  s.parent = parent;
  s.group = group;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  const int64_t now = NowNs();
  const std::lock_guard<std::mutex> lock(mu_);
  // A span taken before it ended is dropped with its list; nothing to close.
  if (static_cast<size_t>(id) < spans_.size()) {
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
}

int Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
                uint64_t group) {
  if (!enabled()) {
    return -1;
  }
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.group = group;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::Take() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

int CurrentSpan() { return tl_current_span; }

ScopedSpan::ScopedSpan(const char* name, uint64_t group, int parent) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) {
    return;
  }
  id_ = tracer.Begin(name, group, parent == kCurrentParent ? tl_current_span : parent);
  saved_current_ = tl_current_span;
  tl_current_span = id_;
}

void ScopedSpan::End() {
  if (id_ < 0) {
    return;
  }
  Tracer::Get().End(id_);
  tl_current_span = saved_current_;
  id_ = -1;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = std::max(spans[i].end_ns, lo);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;  // current merged run [run_start, run_end)
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const int64_t a = std::clamp(a0, lo, hi);
      const int64_t b = std::clamp(b0, lo, hi);
      if (b <= a) {
        continue;
      }
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
      } else {
        if (open) {
          covered += run_end - run_start;
        }
        run_start = a;
        run_end = b;
        open = true;
      }
    }
    if (open) {
      covered += run_end - run_start;
    }
    self[i] = static_cast<double>(hi - lo - covered) * 1e-9;
  }
  return self;
}

std::string LayerOf(const char* span_name) {
  const std::string name(span_name);
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    ++t.calls;
    t.total_s += dur;
    t.self_s += self[i];
  }
  return totals;
}

// ---- open-loop load generator ----------------------------------------------------

std::vector<Arrival> MakeSchedule(uint64_t seed, double rate, int n_requests, int n_variants,
                                  double zipf_alpha, int n_prompts) {
  dz::Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  for (int i = 0; i < n_requests; ++i) {
    t += rng.Exponential(rate);
    Arrival a;
    a.due_s = t;
    a.variant = rng.Zipf(n_variants, zipf_alpha);
    a.prompt = i % n_prompts;
    out.push_back(a);
  }
  return out;
}

OpenLoopResult RunOpenLoop(const std::vector<Arrival>& schedule, int workers,
                           const std::function<bool(const Arrival&, size_t)>& handler,
                           double phase_start_s) {
  const double t0 = phase_start_s >= 0.0 ? phase_start_s : NowS();
  OpenLoopResult result;
  result.requests.resize(schedule.size());

  std::mutex mu;
  std::condition_variable ready;
  std::deque<size_t> queue;  // guarded by mu
  bool closed = false;       // guarded by mu

  auto worker = [&]() {
    for (;;) {
      size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        ready.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) {
          return;
        }
        i = queue.front();
        queue.pop_front();
      }
      RequestTiming& r = result.requests[i];
      r.dequeued_s = NowS() - t0;
      try {
        r.ok = handler(schedule[i], i);
      } catch (...) {
        r.ok = false;  // a throwing request fails; it must not end the process
      }
      r.done_s = NowS() - t0;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back(worker);
  }
  for (size_t i = 0; i < schedule.size(); ++i) {
    const double due = schedule[i].due_s;
    const double wait = t0 + due - NowS();
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    RequestTiming& r = result.requests[i];
    r.due_s = due;
    {
      const std::lock_guard<std::mutex> lock(mu);
      r.sent_s = NowS() - t0;
      queue.push_back(i);
    }
    ready.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  ready.notify_all();
  for (std::thread& t : pool) {
    t.join();
  }
  for (const RequestTiming& r : result.requests) {
    result.wall_s = std::max(result.wall_s, r.done_s);
  }
  return result;
}

double SearchGoodput(const std::vector<double>& ladder, double limit, int start,
                     const std::function<double(size_t)>& p90_at, int* last_pass) {
  const int n = static_cast<int>(ladder.size());
  std::map<int, double> p90;  // measured steps
  auto passes = [&](int i) {
    const auto [it, fresh] = p90.try_emplace(i, 0.0);
    if (fresh) {
      it->second = p90_at(static_cast<size_t>(i));
    }
    return it->second <= limit;
  };
  int lo = -1;  // highest step known to pass; -1 stands for rate 0
  int hi = n;   // lowest step above lo known to fail; n: none fails
  if (start < 0 || start >= n) {
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      if (passes(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  } else if (passes(start)) {
    for (lo = start; lo + 1 < n && passes(lo + 1); ++lo) {
    }
    hi = lo + 1;
  } else {
    for (hi = start; hi > 0 && !passes(hi - 1); --hi) {
    }
    lo = hi - 1;
  }
  *last_pass = lo;
  if (hi == n) {
    return ladder[static_cast<size_t>(n - 1)];
  }
  // Rate 0 counts as a passing step with zero latency. A failed request makes
  // the failing step's p90 infinite, and the passing rate stands.
  const double pass_rate = lo >= 0 ? ladder[static_cast<size_t>(lo)] : 0.0;
  const double pass_p90 = lo >= 0 ? p90[lo] : 0.0;
  const double fail_rate = ladder[static_cast<size_t>(hi)];
  const double fail_p90 = p90[hi];
  if (!std::isfinite(fail_p90)) {
    return pass_rate;
  }
  return pass_rate + (fail_rate - pass_rate) * (limit - pass_p90) / (fail_p90 - pass_p90);
}

}  // namespace dzbench
