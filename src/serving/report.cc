#include "src/serving/report.h"

#include "src/util/stats.h"
#include "src/util/table.h"

namespace dz {

double ServeReport::ThroughputRps() const {
  if (records.empty() || makespan_s <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(records.size()) / makespan_s;
}

double ServeReport::TokenThroughput() const {
  if (records.empty() || makespan_s <= 0.0) {
    return 0.0;
  }
  double tokens = 0.0;
  for (const auto& r : records) {
    tokens += r.output_tokens;
  }
  return tokens / makespan_s;
}

double ServeReport::MeanE2e() const {
  RunningStats s;
  for (const auto& r : records) {
    s.Add(r.E2eLatency());
  }
  return s.mean();
}

double ServeReport::MeanTtft() const {
  RunningStats s;
  for (const auto& r : records) {
    s.Add(r.Ttft());
  }
  return s.mean();
}

double ServeReport::TotalLoadingTime() const {
  double total = 0.0;
  for (const auto& r : records) {
    total += r.LoadingTime();
  }
  return total;
}

double ServeReport::MeanTimePerToken() const {
  RunningStats s;
  for (const auto& r : records) {
    s.Add(r.TimePerToken());
  }
  return s.mean();
}

std::vector<double> ServeReport::E2es() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    out.push_back(r.E2eLatency());
  }
  return out;
}

std::vector<double> ServeReport::Ttfts() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    out.push_back(r.Ttft());
  }
  return out;
}

double ServeReport::SloAttainmentE2e(double slo_s) const {
  return FractionWithin(E2es(), slo_s);
}

double ServeReport::SloAttainmentTtft(double slo_s) const {
  return FractionWithin(Ttfts(), slo_s);
}

int ServeReport::TotalShed() const {
  int total = 0;
  for (int c : shed_by_class) {
    total += c;
  }
  return total;
}

double ServeReport::ClassAttainment(SloClass slo) const {
  const SloSpec& spec = slo_spec.Of(slo);
  size_t met = 0;
  size_t total = static_cast<size_t>(shed_by_class[static_cast<int>(slo)]);
  for (const auto& r : records) {
    if (r.slo != slo) {
      continue;
    }
    ++total;
    if (r.Ttft() <= spec.ttft_s && r.E2eLatency() <= spec.e2e_s) {
      ++met;
    }
  }
  // A class nobody used has nothing to miss: vacuous attainment, never 0/0.
  if (total == 0) {
    return 1.0;
  }
  return static_cast<double>(met) / static_cast<double>(total);
}

std::vector<double> ServeReport::TenantOutputTokens() const {
  std::vector<double> tokens(static_cast<size_t>(n_tenants > 0 ? n_tenants : 1), 0.0);
  for (const auto& r : records) {
    if (r.tenant_id >= 0 && static_cast<size_t>(r.tenant_id) < tokens.size()) {
      tokens[static_cast<size_t>(r.tenant_id)] += static_cast<double>(r.output_tokens);
    }
  }
  return tokens;
}

double ServeReport::JainFairnessIndex() const {
  const std::vector<double> tokens = TenantOutputTokens();
  if (tokens.size() <= 1) {
    return 1.0;  // a single tenant (or none) is trivially fair
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : tokens) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) {
    return 1.0;  // nothing served: equally (un)fair to everyone
  }
  return sum * sum / (static_cast<double>(tokens.size()) * sum_sq);
}

bool ServeReport::HasPathAttribution() const {
  for (const PathAttribution& a : path_by_class) {
    if (a.n > 0) {
      return true;
    }
  }
  return false;
}

std::vector<RequestPathBreakdown> ComputeCriticalPaths(const ServeReport& report) {
  std::vector<RequestTimes> times;
  times.reserve(report.records.size());
  for (const RequestRecord& r : report.records) {
    RequestTimes t;
    t.id = r.id;
    t.slo = r.slo;
    t.arrival_s = r.arrival_s;
    t.sched_attempt_s = r.sched_attempt_s;
    t.start_s = r.start_s;
    t.first_token_s = r.first_token_s;
    t.finish_s = r.finish_s;
    t.preemptions = r.preemptions;
    times.push_back(t);
  }
  return AttributeRequests(times, report.trace_events);
}

void MaterializeReportFromSnapshot(ServeReport& report) {
  const MetricsSnapshot& m = report.metrics;
  report.total_loads = static_cast<int>(m.Value("store.loads.total"));
  report.disk_loads = static_cast<int>(m.Value("store.loads.disk"));
  report.prefetch_issued = static_cast<int>(m.Value("store.prefetch.issued"));
  report.prefetch_hits = static_cast<int>(m.Value("store.prefetch.hits"));
  report.prefetch_wasted = static_cast<int>(m.Value("store.prefetch.wasted"));
  report.stall_hidden_s = m.Value("store.prefetch.stall_hidden_s");
  report.disk_busy_s = m.Value("store.channel.busy_s", {{"channel", "disk"}});
  report.pcie_busy_s = m.Value("store.channel.busy_s", {{"channel", "pcie"}});
  for (int c = 0; c < kNumSloClasses; ++c) {
    report.shed_by_class[static_cast<size_t>(c)] = static_cast<int>(
        m.Value("sched.shed", {{"class", SloClassName(static_cast<SloClass>(c))}}));
  }
}

void FinalizeServeMetrics(MetricsRegistry& registry, ServeReport& report) {
  report.metrics = registry.Snapshot(report.makespan_s);
  MaterializeReportFromSnapshot(report);
}

void AppendTenantRows(Table& table, const ServeReport& report) {
  if (report.n_tenants <= 1 && report.TotalShed() == 0) {
    return;  // single-tenant output matches the pre-tenant rendering
  }
  table.AddRow({"tenants", std::to_string(report.n_tenants)});
  for (int c = 0; c < kNumSloClasses; ++c) {
    const SloClass slo = static_cast<SloClass>(c);
    table.AddRow({std::string("SLO attain ") + SloClassName(slo) + " (class deadlines)",
                  Table::Num(report.ClassAttainment(slo), 3)});
  }
  table.AddRow({"Jain fairness (tenant tokens)",
                Table::Num(report.JainFairnessIndex(), 3)});
  std::string shed;
  std::string shed_label = "shed (";
  for (int c = 0; c < kNumSloClasses; ++c) {
    if (c > 0) {
      shed += "/";
      shed_label += "/";
    }
    shed += std::to_string(report.shed_by_class[static_cast<size_t>(c)]);
    shed_label += SloClassName(static_cast<SloClass>(c));
  }
  table.AddRow({shed_label + ")", shed});
}

void AppendAttributionRows(Table& table, const ServeReport& report) {
  if (!report.HasPathAttribution()) {
    return;  // untraced runs render exactly as before
  }
  for (int c = 0; c < kNumSloClasses; ++c) {
    const PathAttribution& a = report.path_by_class[static_cast<size_t>(c)];
    if (a.n == 0) {
      continue;
    }
    const double n = static_cast<double>(a.n);
    const std::string cls = SloClassName(static_cast<SloClass>(c));
    table.AddRow({"E2E breakdown " + cls + " q/l/c/p (s)",
                  Table::Num(a.e2e.queue_s / n, 2) + "/" +
                      Table::Num(a.e2e.load_s / n, 2) + "/" +
                      Table::Num(a.e2e.compute_s / n, 2) + "/" +
                      Table::Num(a.e2e.preempt_s / n, 2)});
    table.AddRow({"TTFT breakdown " + cls + " q/l/c/p (s)",
                  Table::Num(a.ttft.queue_s / n, 2) + "/" +
                      Table::Num(a.ttft.load_s / n, 2) + "/" +
                      Table::Num(a.ttft.compute_s / n, 2) + "/" +
                      Table::Num(a.ttft.preempt_s / n, 2)});
    if (a.incomplete > 0) {
      table.AddRow({"attribution incomplete " + cls,
                    std::to_string(a.incomplete) + "/" + std::to_string(a.n)});
    }
  }
}

}  // namespace dz
