// Shared machinery of the pairmr benchmark: run arguments, timing samples,
// the per-operation layer fold (RunReport/JobResult/TaskStats plus, on
// traced operations, the mr::Tracer spans), output checks and the final
// metric report.
//
// Everything here observes the library from outside: it times calls into
// public functions and reads what they return. Nothing is instrumented
// inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mr/cluster.hpp"
#include "mr/engine.hpp"
#include "mr/trace.hpp"
#include "pairwise/runner.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Simulated nodes (and fork worker processes) of every cluster, and the
// coordinator's worker threads: the host this benchmark targets has 4
// cores, and the benchmark puts no other load on it.
inline constexpr std::uint32_t kNodes = 4;
inline constexpr std::uint32_t kThreads = 4;

pairmr::mr::ClusterConfig cluster_config();

// Seconds since `start` on the monotonic clock.
double seconds_since(std::chrono::steady_clock::time_point start);

// Times `fn()` and returns its duration in seconds.
double time_call(const std::function<void()>& fn);

// Timing samples of one kind of operation.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

// Seconds and counts of the layers one operation (one PairwiseRunner::run
// or one PairwiseSession::update) went through.
struct OpLayers {
  // From the returned RunReport / JobResults (traced or not).
  double wall_s = 0.0;
  std::uint64_t jobs = 0;
  double job_s = 0.0;        // Σ JobResult::elapsed_seconds
  double compare_s = 0.0;    // Σ compute_jobs elapsed (Job 1 / delta job)
  double aggregate_s = 0.0;  // Σ merge_jobs elapsed (Job 2 / state merge)
  double candidate_s = 0.0;  // Σ candidate_jobs elapsed (similarity join)
  std::uint64_t evaluations = 0;
  std::uint64_t aggregate_input_records = 0;  // merge jobs' map input
  double reduce_skew = 0.0;  // max / mean compare reduce-task input records
  std::uint64_t map_output_bytes = 0;
  std::uint64_t shuffle_remote_bytes = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t merge_passes = 0;
  std::uint64_t candidate_pairs = 0;
  std::uint64_t survivor_pairs = 0;
  // Workers forked / reused during this operation (the report carries a
  // persistent pool's lifetime tallies; callers convert to deltas).
  std::uint64_t workers_forked = 0;
  std::uint64_t workers_reused = 0;

  // From the tracer's spans (traced operations only; zero otherwise).
  double reduce_exec_s = 0.0;    // Σ reduce-exec
  double map_exec_s = 0.0;       // Σ map-exec
  double map_attempt_s = 0.0;    // Σ map-attempt
  double fetch_s = 0.0;          // Σ shuffle-fetch, local and remote
  double remote_fetch_s = 0.0;   // Σ shuffle-fetch with peer != node
  std::uint64_t remote_fetch_bytes = 0;
  double spill_write_s = 0.0;    // Σ spill-write
  double merge_pass_s = 0.0;     // Σ merge-pass
};

// A single-thread PairEvaluator pass over every pair of `payloads` in
// (lo, hi) order, handing each kept pair's lo-side result list to
// `visit`. Returns the pass's wall time.
using KeptPairFn = std::function<void(
    std::size_t lo, std::size_t hi,
    const std::vector<pairmr::ResultEntry>& lo_results)>;
double evaluate_all(const pairmr::PairwiseJob& job,
                    const std::vector<std::string>& payloads,
                    const KeptPairFn& visit);

// Fills the report-derived fields of `layers` from one operation.
OpLayers fold_report(const pairmr::RunReport& report, double wall_s);

// Adds the span-derived fields: every span the tracer holds belongs to
// the operation just folded.
void fold_spans(const pairmr::mr::Tracer& tracer, OpLayers& layers);

// DFS directory contents as (path suffix, records): the unit of the
// byte-identity checks.
using Snapshot =
    std::vector<std::pair<std::string, std::vector<pairmr::mr::Record>>>;
Snapshot snapshot(const pairmr::mr::Cluster& cluster, const std::string& dir);

// Tallies operations and their output checks.
class Ledger {
 public:
  // Counts one attempted operation; `ok` false counts it as failed and
  // prints `what` to stderr (once per distinct message).
  void record(bool ok, const std::string& what);
  // Runs `op`; an exception counts as a failed operation.
  bool attempt(const std::string& what, const std::function<bool()>& op);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> failures_;
};

// One named metric value as printed.
struct Metric {
  double value = 0.0;
  std::string unit;
};

// What a workload hands back to main().
struct Outcome {
  Ledger ledger;
  // Workload-specific names of the unit operation and of the read
  // ("makespan" / "output_read" on batch runs, "update" / "reads" on the
  // session), used for the human-readable lines.
  std::string op_name;
  std::string read_name;
  // Resident size when the peak_rss_mib() window opened.
  double rss_window_start_mib = 0.0;
  // End-to-end metrics (untraced operations).
  Samples setup_s;
  Samples op_s;
  Samples read_s;
  // Per-layer metrics, in print order (traced run only).
  std::vector<std::pair<std::string, Metric>> layers;
  // Human-readable lines: metrics under their workload-specific names
  // (makespan_s, update_p50_ms, spill.write_s, ...) with their sample
  // counts; printed above the JSON line.
  std::vector<std::string> notes;
};

// Opens the window peak_rss_mib() measures: hands freed heap back to the
// kernel and resets this process's resident high-water mark to its
// current resident size, which it returns in MiB. Workloads call it after
// their set-up and reference passes, so the peak is that of the measured
// operations, not of the benchmark's own preparation. Throws when the
// kernel refuses the reset.
double reset_peak_rss();

// High-water marks of resident memory, in MiB: this process (the
// coordinator, which also holds the simulated DFS) since the last
// reset_peak_rss(), and the largest of its reaped child processes over
// the whole run (the fork backend's workers; 0 when none).
double peak_rss_mib();
double peak_worker_rss_mib();

// Median of per-operation values picked by `get`.
double median_of(const std::vector<OpLayers>& ops,
                 const std::function<double(const OpLayers&)>& get);

// Appends the per-layer metrics shared by every workload, folded from the
// traced operations `traced` and the untraced op samples of the run.
struct LayerInputs {
  std::vector<OpLayers> traced;
  Samples untraced_op_s;
  Samples traced_op_s;
  double kernel_pairs_per_s = 0.0;  // single-thread PairEvaluator pass
  std::uint64_t base_pairs = 0;      // C(v,2) of the similarity join
  double fork_overhead_ratio = 0.0;  // fork / in-process, when measured
  double cache_hit_ratio = 0.0;
  double invalidated_per_update = 0.0;
  Samples dataset_write_s;
  Samples scheme_build_s;
  Samples output_read_s;
};
void add_layer_metrics(const LayerInputs& in, Outcome& out);

// Formats a value with its unit for the human-readable lines.
std::string note(const std::string& name, double value,
                 const std::string& unit, std::size_t samples = 0);

// Deadline helper: true while `start + seconds` lies in the future.
bool before(std::chrono::steady_clock::time_point start, double seconds);

Outcome run_batch_compute(const Args& args);
Outcome run_batch_shipping(const Args& args);
Outcome run_session_churn(const Args& args);
Outcome run_simjoin_sparse(const Args& args);

}  // namespace perfbench
