#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using namespace pairmr;

mr::ClusterConfig cluster_config() {
  return {.num_nodes = kNodes, .worker_threads = kThreads};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double time_call(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return seconds_since(start);
}

bool before(std::chrono::steady_clock::time_point start, double seconds) {
  return seconds_since(start) < seconds;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

double elapsed_sum(const std::vector<mr::JobResult>& jobs) {
  double total = 0.0;
  for (const auto& j : jobs) total += j.elapsed_seconds;
  return total;
}

std::uint64_t counter_sum(const std::vector<mr::JobResult>& jobs,
                          const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& j : jobs) total += j.counter(name);
  return total;
}

// max / mean input records over the reduce tasks of `jobs`.
double input_skew(const std::vector<mr::JobResult>& jobs) {
  std::uint64_t max = 0;
  std::uint64_t total = 0;
  std::uint64_t tasks = 0;
  for (const auto& j : jobs) {
    for (const auto& t : j.reduce_tasks) {
      max = std::max(max, t.input_records);
      total += t.input_records;
      ++tasks;
    }
  }
  if (total == 0) return 0.0;
  return static_cast<double>(max) * static_cast<double>(tasks) /
         static_cast<double>(total);
}

}  // namespace

double evaluate_all(const PairwiseJob& job,
                    const std::vector<std::string>& payloads,
                    const KeptPairFn& visit) {
  std::vector<Element> elems(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    elems[i].id = i;
    elems[i].payload = payloads[i];
  }
  std::vector<ResultEntry> lo_acc;
  std::vector<ResultEntry> hi_acc;
  return time_call([&] {
    PairEvaluator eval(job, elems);
    for (std::size_t lo = 0; lo < elems.size(); ++lo) {
      for (std::size_t hi = lo + 1; hi < elems.size(); ++hi) {
        eval.evaluate(lo, hi, lo_acc, hi_acc);
        if (!lo_acc.empty()) {
          visit(lo, hi, lo_acc);
          lo_acc.clear();
        }
        hi_acc.clear();
      }
    }
  });
}

OpLayers fold_report(const RunReport& report, double wall_s) {
  std::vector<mr::JobResult> all = report.candidate_jobs;
  all.insert(all.end(), report.compute_jobs.begin(),
             report.compute_jobs.end());
  all.insert(all.end(), report.merge_jobs.begin(), report.merge_jobs.end());

  OpLayers l;
  l.wall_s = wall_s;
  l.jobs = all.size();
  l.job_s = elapsed_sum(all);
  l.compare_s = elapsed_sum(report.compute_jobs);
  l.aggregate_s = elapsed_sum(report.merge_jobs);
  l.candidate_s = elapsed_sum(report.candidate_jobs);
  l.evaluations = report.evaluations;
  l.aggregate_input_records =
      counter_sum(report.merge_jobs, "map.input.records");
  l.reduce_skew = input_skew(report.compute_jobs);
  l.map_output_bytes = counter_sum(all, "map.output.bytes");
  l.shuffle_remote_bytes = report.shuffle_remote_bytes;
  l.spill_bytes = counter_sum(all, "spill.bytes");
  l.merge_passes = counter_sum(all, "merge.passes");
  l.candidate_pairs = report.candidate_pairs;
  l.survivor_pairs = report.survivor_pairs;
  l.workers_forked = report.workers_forked;
  l.workers_reused = report.workers_reused;
  return l;
}

void fold_spans(const mr::Tracer& tracer, OpLayers& l) {
  for (const mr::Span& s : tracer.spans()) {
    const double d = s.duration_seconds();
    switch (s.kind) {
      case mr::SpanKind::kReduceExec:
        l.reduce_exec_s += d;
        break;
      case mr::SpanKind::kMapExec:
        l.map_exec_s += d;
        break;
      case mr::SpanKind::kMapAttempt:
        l.map_attempt_s += d;
        break;
      case mr::SpanKind::kShuffleFetch:
        l.fetch_s += d;
        if (s.remote()) {
          l.remote_fetch_s += d;
          l.remote_fetch_bytes += s.bytes;
        }
        break;
      case mr::SpanKind::kSpillWrite:
        l.spill_write_s += d;
        break;
      case mr::SpanKind::kMergePass:
        l.merge_pass_s += d;
        break;
      default:
        break;
    }
  }
}

Snapshot snapshot(const mr::Cluster& cluster, const std::string& dir) {
  Snapshot out;
  for (const std::string& path : cluster.dfs().list(dir)) {
    out.emplace_back(path.substr(dir.size()),
                     cluster.dfs().open(path)->records);
  }
  return out;
}

void Ledger::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_[what]++ == 0) {
    std::cerr << "perfbench: FAILED: " << what << "\n";
  }
}

bool Ledger::attempt(const std::string& what,
                     const std::function<bool()>& op) {
  bool ok = false;
  std::string detail = what;
  try {
    ok = op();
  } catch (const std::exception& e) {
    detail += " threw: ";
    detail += e.what();
  }
  record(ok, detail);
  return ok;
}

namespace {

// A "Vm...:  <n> kB" field of /proc/self/status, in MiB.
double status_mib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

}  // namespace

double reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;  // 5: reset the peak RSS to the current
  if (!clear_refs) {
    throw std::runtime_error("cannot reset the peak RSS: writing "
                             "/proc/self/clear_refs failed");
  }
  return status_mib("VmRSS");
}

double peak_rss_mib() { return status_mib("VmHWM"); }

double peak_worker_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median_of(const std::vector<OpLayers>& ops,
                 const std::function<double(const OpLayers&)>& get) {
  Samples s;
  for (const auto& op : ops) s.add(get(op));
  return s.median();
}

void add_layer_metrics(const LayerInputs& in, Outcome& out) {
  const auto& ops = in.traced;
  auto med = [&](const std::function<double(const OpLayers&)>& get) {
    return median_of(ops, get);
  };
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    out.layers.push_back({name, Metric{value, unit}});
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  const double evaluations = med([](auto& l) { return l.evaluations; });
  const double op_s = in.untraced_op_s.median();

  add("kernels.pairs_per_s", in.kernel_pairs_per_s, "1/s");
  add("kernels.evaluations", evaluations, "count");

  add("pairwise.reduce_exec_s", med([](auto& l) { return l.reduce_exec_s; }),
      "s");
  add("pairwise.reduce_skew", med([](auto& l) { return l.reduce_skew; }),
      "ratio");
  add("pairwise.parallel_efficiency",
      ratio(ratio(evaluations, in.kernel_pairs_per_s), kThreads * op_s),
      "ratio");
  add("pairwise.compare_s", med([](auto& l) { return l.compare_s; }), "s");
  add("pairwise.aggregate_s", med([](auto& l) { return l.aggregate_s; }),
      "s");
  add("pairwise.aggregate_input_records",
      med([](auto& l) { return l.aggregate_input_records; }), "count");

  add("mr.jobs", med([](auto& l) { return l.jobs; }), "count");
  add("mr.job_s", med([](auto& l) { return l.job_s; }), "s");
  add("mr.driver_gap_s", med([](auto& l) { return l.wall_s - l.job_s; }),
      "s");
  add("mr.map_exec_s", med([](auto& l) { return l.map_exec_s; }), "s");
  add("mr.map_publish_s",
      med([](auto& l) { return l.map_attempt_s - l.map_exec_s; }), "s");
  add("mr.map_output_bytes", med([](auto& l) { return l.map_output_bytes; }),
      "B");
  add("mr.shuffle_remote_bytes",
      med([](auto& l) { return l.shuffle_remote_bytes; }), "B");

  add("backend.shuffle_fetch_s", med([](auto& l) { return l.fetch_s; }), "s");
  add("backend.shuffle_mib_per_s", med([&](auto& l) {
        return ratio(l.remote_fetch_bytes / (1024.0 * 1024.0),
                     l.remote_fetch_s);
      }),
      "MiB/s");
  add("backend.fork_overhead_ratio", in.fork_overhead_ratio, "ratio");
  add("backend.workers_forked", med([](auto& l) { return l.workers_forked; }),
      "count");
  add("backend.workers_reused", med([](auto& l) { return l.workers_reused; }),
      "count");

  add("spill.bytes", med([](auto& l) { return l.spill_bytes; }), "B");
  add("spill.merge_passes", med([](auto& l) { return l.merge_passes; }),
      "count");
  // Spill and candidate time as shares, not seconds: on the workloads that
  // do not spill or filter they read exactly 0 on every run, which the
  // benchmark format accepts of a ratio but not of a time. The seconds
  // are printed below.
  add("spill.write_share", med([&](auto& l) {
        return ratio(l.spill_write_s, kThreads * l.wall_s);
      }),
      "ratio");
  add("spill.merge_share", med([&](auto& l) {
        return ratio(l.merge_pass_s, kThreads * l.wall_s);
      }),
      "ratio");

  const double candidates = med([](auto& l) { return l.candidate_pairs; });
  add("candidates.pairs", candidates, "count");
  add("candidates.precision",
      ratio(med([](auto& l) { return l.survivor_pairs; }), candidates),
      "ratio");
  add("candidates.enumeration_yield",
      ratio(candidates, static_cast<double>(in.base_pairs)), "ratio");
  add("candidates.phase_share",
      med([&](auto& l) { return ratio(l.candidate_s, l.wall_s); }), "ratio");

  add("session.cache_hit_ratio", in.cache_hit_ratio, "ratio");
  add("session.invalidated_per_update", in.invalidated_per_update, "count");

  add("fs.dataset_write_s", in.dataset_write_s.median(), "s");
  add("design.scheme_build_s", in.scheme_build_s.median(), "s");
  add("fs.output_read_s", in.output_read_s.median(), "s");

  // The span time the layers above account for, as a share of the
  // operation's thread time (kThreads × wall): map attempts (map-exec,
  // publish and spill writes nest inside them), shuffle fetches, and
  // reduce-exec (merge passes nest inside it). The rest is driver time,
  // job fixed cost, and attempt time outside any of those spans.
  add("trace.coverage", med([&](auto& l) {
        return ratio(l.map_attempt_s + l.fetch_s + l.reduce_exec_s,
                     kThreads * l.wall_s);
      }),
      "ratio");
  add("trace.overhead_frac",
      ratio(in.traced_op_s.median(), in.untraced_op_s.median()) - 1.0,
      "ratio");

  // The seconds behind the three shares above.
  out.notes.push_back(
      note("spill.write_s", med([](auto& l) { return l.spill_write_s; }),
           "s", ops.size()));
  out.notes.push_back(
      note("spill.merge_s", med([](auto& l) { return l.merge_pass_s; }), "s",
           ops.size()));
  out.notes.push_back(
      note("candidates.phase_s", med([](auto& l) { return l.candidate_s; }),
           "s", ops.size()));
  out.notes.push_back(note("traced operations", ops.size(), "count"));
}

std::string note(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  std::ostringstream os;
  os << "  " << std::left << std::setw(34) << name << std::right
     << std::setw(16) << std::setprecision(6) << value << " " << unit;
  if (samples > 0) os << "  (n=" << samples << ")";
  return os.str();
}

}  // namespace perfbench
