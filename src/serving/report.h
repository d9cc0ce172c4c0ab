// Per-request records and aggregate serving metrics (paper §6.1 "Metrics": E2E latency,
// TTFT, throughput, SLO attainment). All times are simulated seconds.
#ifndef SRC_SERVING_REPORT_H_
#define SRC_SERVING_REPORT_H_

#include <array>
#include <string>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/obs/critical_path.h"
#include "src/obs/trace_recorder.h"
#include "src/workload/trace.h"

namespace dz {

// Lifecycle timestamps of one served request (all in simulated seconds on the
// trace's global clock) plus its token counts.
struct RequestRecord {
  int id = 0;
  int model_id = 0;        // fine-tuned variant the request targets
  int tenant_id = 0;       // tenant the request belongs to
  SloClass slo = SloClass::kStandard;  // SLO class it was promised
  int prompt_tokens = 0;   // prompt length (tokens)
  int output_tokens = 0;   // generated length (tokens)
  double arrival_s = 0.0;
  double sched_attempt_s = 0.0;  // reached the scheduler (queue head / skip-the-line)
  double start_s = 0.0;          // admitted to the running batch (artifact resident)
  double first_token_s = 0.0;    // end of prefill iteration
  double finish_s = 0.0;
  int preemptions = 0;  // times this request was parent-finish preempted (§5.4)

  double E2eLatency() const { return finish_s - arrival_s; }
  double Ttft() const { return first_token_s - arrival_s; }
  double QueueingTime() const { return sched_attempt_s - arrival_s; }
  // Cold-start stall: time between first scheduler consideration and admission,
  // dominated by waiting for the variant's artifact to reach the GPU.
  double LoadingTime() const { return start_s - sched_attempt_s; }
  double InferenceTime() const { return finish_s - start_s; }
  double TimePerToken() const {
    return output_tokens > 0 ? E2eLatency() / output_tokens : E2eLatency();
  }
};

// One engine run over one trace: per-request records plus the run's metrics
// registry snapshot. The scalar stat fields below are thin views materialized
// from that snapshot at the end of Serve (FinalizeServeMetrics) — no engine or
// store keeps hand-maintained counters anymore — and stay bit-identical to the
// pre-registry fields (golden-enforced).
struct ServeReport {
  std::string engine_name;
  std::vector<RequestRecord> records;
  // Final registry snapshot of the run ("store.*", "sched.*", "engine.*",
  // "latency.*" instruments), tagged with the run's makespan. Cluster merges
  // combine these snapshots worker-by-worker (MetricsSnapshot::MergeFrom).
  MetricsSnapshot metrics;
  // Periodic in-run snapshots on the simulated clock, captured every
  // EngineConfig::metrics.interval_s seconds (empty when the interval is 0).
  // `dzip_cli --metrics-out` serializes these as a JSONL time series.
  std::vector<MetricsSnapshot> timeline;
  double makespan_s = 0.0;  // time when the last request finished (s)
  // Artifact-movement totals from the engine's ArtifactStore: every load crosses
  // PCIe (host → device); `disk_loads` additionally paid the disk → host read.
  // Prefetched transfers are included (they move real bytes).
  int total_loads = 0;  // PCIe (H2D) transfers
  int disk_loads = 0;   // loads that started from disk
  // Prefetch effectiveness (all 0 when prefetch is disabled): speculative loads
  // issued, those used by a demand request (hits), those evicted unused (wasted),
  // and the artifact-wait seconds demand requests skipped thanks to prefetch.
  int prefetch_issued = 0;
  int prefetch_hits = 0;
  int prefetch_wasted = 0;
  double stall_hidden_s = 0.0;
  // Cumulative busy seconds per transfer channel (utilization = busy / makespan).
  double disk_busy_s = 0.0;
  double pcie_busy_s = 0.0;
  // Multi-tenant context: tenant count of the served trace and the per-class
  // deadlines the scheduler ran with (used by the attainment metrics below).
  int n_tenants = 1;
  SloSpecs slo_spec;
  // Admission-control sheds per SLO class (all 0 when shedding is disabled).
  // Shed requests have no RequestRecord; attainment counts them as misses.
  std::array<int, kNumSloClasses> shed_by_class = {0, 0, 0};
  // Per-request trace events of the run (empty unless EngineConfig::tracing is
  // enabled), timestamp-ordered as TraceRecorder::Drain returns them, plus the
  // events a flight-recorder ring overwrote. Feeds the Chrome-trace exporter
  // and the critical-path attribution below; never influences any scalar
  // above (pure observation, golden-enforced).
  std::vector<TraceEvent> trace_events;
  long long trace_events_dropped = 0;
  // Requests the run did NOT complete because the clock hit
  // EngineConfig::halt_s first: still-queued, running (their partial progress
  // is lost — re-serving re-pays prefill and decode, the re-warm cost a crash
  // really incurs), and not-yet-arrived trace requests. Always empty on a
  // natural (halt_s = inf) run. The elastic cluster layer re-routes these into
  // the next epoch; they never appear in `records`.
  std::vector<TraceRequest> unfinished;
  // Requests whose artifact the registry could not source at all (every
  // holder dead/partitioned — the store's typed `unavailable` result). On a
  // halted (epoch) run these land in `unfinished` instead, because the next
  // epoch may see recovered holders or completed repairs; only a natural
  // (halt_s = inf) run declares them terminally unavailable here. Always empty
  // without a registry. The elastic ledger counts them under `failed`.
  std::vector<TraceRequest> unavailable;
  // Artifact ids in the store's node-local cache tier at the end of the run
  // (registry runs only; empty otherwise). Epoch carry for `registry_warm`.
  std::vector<int> cached_artifacts;
  // Critical-path attribution per SLO class (all zero when tracing is off):
  // each completed request's E2E and TTFT split into queue / load / compute /
  // preempt segments that sum back to the measured latency within 1e-9
  // (test-enforced). Cluster merges add these in GPU order like snapshots.
  ClassPathAttribution path_by_class = {};

  // True when the attribution table has content (some request was attributed).
  bool HasPathAttribution() const;

  size_t completed() const { return records.size(); }
  double ThroughputRps() const;    // completed requests / makespan
  double TokenThroughput() const;  // output tokens / s
  double MeanE2e() const;
  double MeanTtft() const;
  double MeanTimePerToken() const;
  // Summed per-request LoadingTime(): total cold-start stall seconds spent waiting
  // for artifacts after a request reached the scheduler. This is the quantity the
  // prefetch pipeline exists to shrink.
  double TotalLoadingTime() const;
  std::vector<double> E2es() const;
  std::vector<double> Ttfts() const;
  // Fraction of requests with metric <= slo_s.
  double SloAttainmentE2e(double slo_s) const;
  double SloAttainmentTtft(double slo_s) const;

  // --- multi-tenant / per-class metrics -------------------------------------
  // All are total functions: 0 tenants, 1 tenant, or a class with no requests
  // yield well-defined values (never NaN/inf) — the CompressionRatio lesson.

  int TotalShed() const;
  // Fraction of the class's requests (completed + shed) that met BOTH their
  // class deadlines (TTFT and E2E from slo_spec). A class that saw no requests
  // at all vacuously attains 1.0.
  double ClassAttainment(SloClass slo) const;
  // Output tokens served per tenant, indexed by tenant id (size max(1, n_tenants)).
  std::vector<double> TenantOutputTokens() const;
  // Jain fairness index over per-tenant served output tokens:
  // (Σx)² / (n·Σx²) ∈ [1/n, 1]. Defined as 1.0 (perfectly fair) for a single
  // tenant, zero tenants, or when nothing was served.
  double JainFairnessIndex() const;
};

class Table;

// Appends the tenant/class rows (tenant count, per-class attainment against
// the class deadlines, Jain fairness, per-class sheds) to a metric/value
// table — but only when the report is multi-tenant or actually shed something,
// so single-tenant renderings stay unchanged. Shared by `dzip_cli simulate`
// and ClusterReport::Summary.
void AppendTenantRows(Table& table, const ServeReport& report);

// Takes the run's final registry snapshot (tagged with the report's makespan)
// and materializes the legacy scalar stat fields from it: artifact/prefetch/
// channel totals from the "store.*" instruments and shed_by_class from the
// "sched.shed" counters. EngineCore calls this once at the end of a run;
// BuildClusterReport applies the same materialization to the merged snapshot.
void FinalizeServeMetrics(MetricsRegistry& registry, ServeReport& report);

// The snapshot → scalar-fields half of FinalizeServeMetrics, reused for merged
// cluster snapshots (report.metrics must already be populated).
void MaterializeReportFromSnapshot(ServeReport& report);

// Per-request critical-path breakdowns of the report's records against its
// trace_events (record-only fallback when events are missing/ring-dropped).
// Engines call this at the end of a traced Serve() to fill path_by_class;
// tests call it directly to check the 1e-9 segment-sum contract.
std::vector<RequestPathBreakdown> ComputeCriticalPaths(const ServeReport& report);

// Appends the per-class critical-path attribution rows (mean seconds in
// queue / load / compute / preempt for E2E, plus the TTFT split) to a
// metric/value table — only when the report actually carries an attribution,
// so untraced renderings stay unchanged. Shared by `dzip_cli simulate` and
// ClusterReport::Summary.
void AppendAttributionRows(Table& table, const ServeReport& report);

}  // namespace dz

#endif  // SRC_SERVING_REPORT_H_
