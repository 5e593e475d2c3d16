// The three batch workloads: one PairwiseRunner::run per operation,
// followed by read_elements of its output (the read) and the output check.
//
//   batch-compute   two-job BlockScheme, in-process, clustered 32-d
//                   vectors, euclidean + prepared kernel, keep_below at
//                   the 1 % distance quantile;
//   batch-shipping  two-job DesignScheme, fork backend + shm plane, 64 KiB
//                   blobs, expensive_blob_kernel(1);
//   simjoin-sparse  RunMode::kSimilarityJoin, prefix filter, t = 0.8,
//                   in-process, Zipf token documents with planted
//                   near-duplicates, per-task memory budget that spills.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/intmath.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "pairwise/block_scheme.hpp"
#include "pairwise/dataset.hpp"
#include "pairwise/design_scheme.hpp"
#include "pairwise/pipeline.hpp"
#include "pairwise/runner.hpp"
#include "workloads/generators.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

namespace {

using namespace pairmr;

constexpr std::uint64_t kComputeV = 5000;
constexpr std::uint64_t kShippingV = 121;
constexpr std::uint64_t kSimjoinV = 6000;
constexpr double kSimjoinThreshold = 0.8;

// Set-up repetitions (at least kMinSetups, then until kSetupSeconds or
// kMaxSetups) and output reads per run.
constexpr int kMinSetups = 20;
constexpr int kMaxSetups = 200;
constexpr double kSetupSeconds = 1.0;
constexpr int kReadsPerRun = 5;
// Random pairs sampled to place a keep threshold at a distance quantile.
constexpr std::uint64_t kQuantileSamples = 1000000;

// One batch workload: its inputs, how to build its scheme and spec, and
// how to check one run's output.
struct BatchCase {
  std::vector<std::string> payloads;
  std::function<std::shared_ptr<const DistributionScheme>()> make_scheme;
  RunMode mode = RunMode::kTwoJob;
  PairwiseJob job;
  PairwiseOptions options;
  // Invariants of the returned report (exact counts).
  std::function<bool(const RunReport&)> check_report;
  // Output check over the run's DFS output and its decoded elements.
  std::function<bool(const mr::Cluster&, const RunReport&,
                     const std::vector<Element>&)>
      check_output;
};

// Order-independent checksum of a symmetric result relation: each kept
// pair contributes once per side.
std::uint64_t pair_hash(ElementId a, ElementId b, std::string_view result) {
  const ElementId lo = std::min(a, b);
  const ElementId hi = std::max(a, b);
  return hash_combine(hash_combine(lo * 0x9e3779b97f4a7c15ull, hi),
                      fnv1a(result));
}

// Every element present once, in id order, with its input payload and
// strictly ascending partner ids.
bool well_formed(const std::vector<Element>& out,
                 const std::vector<std::string>& payloads) {
  if (out.size() != payloads.size()) return false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].id != i || out[i].payload != payloads[i]) return false;
    for (std::size_t r = 1; r < out[i].results.size(); ++r) {
      if (out[i].results[r - 1].other >= out[i].results[r].other) {
        return false;
      }
    }
  }
  return true;
}

Outcome run_batch(const Args& args, const BatchCase& bc,
                  const std::string& what, LayerInputs& layers) {
  Outcome out;
  out.op_name = "makespan";
  out.read_name = "output_read";

  // Set-up, repeated so its median is steady: cluster, dataset write,
  // scheme construction.
  std::unique_ptr<mr::Cluster> cluster;
  std::vector<std::string> inputs;
  std::shared_ptr<const DistributionScheme> scheme;
  const auto setup_start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kMinSetups || (rep < kMaxSetups &&
                                          before(setup_start, kSetupSeconds));
       ++rep) {
    cluster.reset();
    const auto start = std::chrono::steady_clock::now();
    cluster = std::make_unique<mr::Cluster>(cluster_config());
    layers.dataset_write_s.add(time_call(
        [&] { inputs = write_dataset(*cluster, "/data", bc.payloads); }));
    layers.scheme_build_s.add(time_call([&] { scheme = bc.make_scheme(); }));
    out.setup_s.add(seconds_since(start));
  }
  out.rss_window_start_mib = reset_peak_rss();

  mr::Tracer tracer;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < 3 || before(start, args.seconds); ++i) {
    const bool traced = args.trace && i % 2 == 1;
    cluster->set_tracer(traced ? &tracer : nullptr);
    tracer.clear();

    RunSpec spec;
    spec.input_paths = inputs;
    spec.mode = bc.mode;
    spec.scheme = scheme;
    spec.job = bc.job;
    spec.options = bc.options;
    spec.options.work_dir = "/run-" + std::to_string(i);

    RunReport report;
    double wall = 0.0;
    const bool ran = out.ledger.attempt(what + " run", [&] {
      wall = time_call([&] { report = PairwiseRunner(*cluster).run(spec); });
      return bc.check_report(report);
    });
    cluster->set_tracer(nullptr);
    if (!ran) {
      cluster->dfs().remove_prefix(spec.options.work_dir);
      continue;
    }
    if (traced) {
      OpLayers l = fold_report(report, wall);
      fold_spans(tracer, l);
      layers.traced.push_back(l);
      layers.traced_op_s.add(wall);
    } else {
      out.op_s.add(wall);
      layers.untraced_op_s.add(wall);
    }

    // The read: the client fetching the results. Repeated so the read
    // median rests on many samples; the first read is checked against
    // the reference, the repeats against the first.
    std::vector<Element> first;
    for (int r = 0; r < kReadsPerRun; ++r) {
      out.ledger.attempt(what + " output check", [&] {
        std::vector<Element> elements;
        const double read = time_call(
            [&] { elements = read_elements(*cluster, report.output_dir); });
        if (!traced) {
          out.read_s.add(read);
          layers.output_read_s.add(read);
        }
        if (r > 0) return elements == first;
        first = std::move(elements);
        return bc.check_output(*cluster, report, first);
      });
    }
    cluster->dfs().remove_prefix(spec.options.work_dir);
  }
  return out;
}

}  // namespace

Outcome run_batch_compute(const Args& args) {
  Rng rng(args.seed);
  const auto points = clustered_points(kComputeV, 32, 16, 12.0, rng);
  const double threshold =
      distance_quantile(points, 0.01, kQuantileSamples, rng);

  BatchCase bc;
  bc.payloads = workloads::vector_payloads(points);
  bc.make_scheme = [] { return std::make_shared<BlockScheme>(kComputeV, 8); };
  bc.job.compute = workloads::euclidean_kernel();
  bc.job.prepared = workloads::euclidean_prepared();
  bc.job.keep = workloads::keep_below(threshold);
  bc.options.backend = mr::BackendKind::kInProcess;

  // Reference: one PairEvaluator on one thread over all C(v,2) pairs.
  std::uint64_t ref_hash = 0;
  std::uint64_t ref_kept = 0;
  const double single_s = evaluate_all(
      bc.job, bc.payloads,
      [&](std::size_t lo, std::size_t hi, const std::vector<ResultEntry>& r) {
        ref_hash += 2 * pair_hash(lo, hi, r.front().result);
        ++ref_kept;
      });

  bc.check_report = [](const RunReport& r) {
    return r.evaluations == pair_count(kComputeV);
  };
  bc.check_output = [&](const mr::Cluster&, const RunReport& r,
                        const std::vector<Element>& out) {
    if (!well_formed(out, bc.payloads) || r.results_kept != ref_kept) {
      return false;
    }
    std::uint64_t hash = 0;
    std::uint64_t entries = 0;
    for (const Element& e : out) {
      for (const ResultEntry& r2 : e.results) {
        hash += pair_hash(e.id, r2.other, r2.result);
        ++entries;
      }
    }
    return hash == ref_hash && entries == 2 * ref_kept;
  };

  LayerInputs layers;
  layers.kernel_pairs_per_s =
      static_cast<double>(pair_count(kComputeV)) / single_s;
  Outcome out = run_batch(args, bc, "batch-compute", layers);
  out.notes.push_back(note("reference kept pairs", ref_kept, "count"));
  out.notes.push_back(note("single-thread pass", single_s, "s"));
  if (args.trace) add_layer_metrics(layers, out);
  return out;
}

Outcome run_batch_shipping(const Args& args) {
  Rng rng(args.seed);

  BatchCase bc;
  bc.payloads = blobs(kShippingV, 64 * 1024, rng);
  bc.make_scheme = [] { return std::make_shared<DesignScheme>(kShippingV); };
  bc.job.compute = workloads::expensive_blob_kernel(1);
  bc.options.backend = mr::BackendKind::kFork;
  bc.options.shuffle_plane = mr::ShufflePlane::kShm;

  LayerInputs layers;
  layers.kernel_pairs_per_s =
      static_cast<double>(pair_count(kShippingV)) /
      evaluate_all(bc.job, bc.payloads, [](auto, auto, const auto&) {});

  // Reference: the same run on the in-process backend, made at set-up;
  // its median time is the denominator of backend.fork_overhead_ratio.
  Snapshot reference;
  Samples inprocess_s;
  {
    mr::Cluster cluster(cluster_config());
    RunSpec spec;
    spec.input_paths = write_dataset(cluster, "/data", bc.payloads);
    spec.scheme = bc.make_scheme();
    spec.job = bc.job;
    spec.options.backend = mr::BackendKind::kInProcess;
    for (int rep = 0; rep < 3; ++rep) {
      spec.options.work_dir = "/ref-" + std::to_string(rep);
      RunReport report;
      inprocess_s.add(
          time_call([&] { report = PairwiseRunner(cluster).run(spec); }));
      if (rep == 0) reference = snapshot(cluster, report.output_dir);
      cluster.dfs().remove_prefix(spec.options.work_dir);
    }
  }

  bc.check_report = [](const RunReport& r) {
    return r.evaluations == pair_count(kShippingV) &&
           r.shuffle_plane == mr::ShufflePlane::kShm;
  };
  bc.check_output = [&](const mr::Cluster& cluster, const RunReport& r,
                        const std::vector<Element>&) {
    return snapshot(cluster, r.output_dir) == reference;
  };

  Outcome out = run_batch(args, bc, "batch-shipping", layers);
  const double fork_s = layers.untraced_op_s.median();
  layers.fork_overhead_ratio = fork_s / inprocess_s.median();
  out.notes.push_back(
      note("in-process makespan_s", inprocess_s.median(), "s",
           inprocess_s.size()));
  out.notes.push_back(note("backend.fork_overhead_ratio",
                           layers.fork_overhead_ratio, "ratio"));
  if (args.trace) add_layer_metrics(layers, out);
  return out;
}

Outcome run_simjoin_sparse(const Args& args) {
  Rng rng(args.seed);
  const auto docs = zipf_documents(kSimjoinV, 20000, 40, 8, rng);

  BatchCase bc;
  bc.payloads = workloads::document_payloads(docs);
  bc.make_scheme = [] { return std::make_shared<BlockScheme>(kSimjoinV, 8); };
  bc.mode = RunMode::kSimilarityJoin;
  bc.options.backend = mr::BackendKind::kInProcess;
  bc.options.similarity_join.threshold = kSimjoinThreshold;
  bc.options.similarity_join.filter = CandidateFilter::kPrefix;
  bc.options.memory_budget = {.bytes = 16 * 1024, .merge_fan_in = 4};

  // Reference: the exhaustive keep-filtered relation, one PairEvaluator
  // on one thread, assembled into the expected output elements.
  PairwiseJob exhaustive;
  exhaustive.compute = workloads::jaccard_kernel();
  exhaustive.prepared = workloads::jaccard_prepared();
  exhaustive.keep = workloads::keep_above(kSimjoinThreshold);
  std::vector<Element> expected(kSimjoinV);
  for (std::size_t i = 0; i < kSimjoinV; ++i) {
    expected[i].id = i;
    expected[i].payload = bc.payloads[i];
  }
  std::uint64_t ref_kept = 0;
  const double single_s = evaluate_all(
      exhaustive, bc.payloads,
      [&](std::size_t lo, std::size_t hi, const std::vector<ResultEntry>& r) {
        expected[lo].results.push_back({hi, r.front().result});
        expected[hi].results.push_back({lo, r.front().result});
        ++ref_kept;
      });
  for (Element& e : expected) {
    std::sort(e.results.begin(), e.results.end(),
              [](const auto& a, const auto& b) { return a.other < b.other; });
  }

  bc.check_report = [&](const RunReport& r) {
    return r.candidate_pairs == r.survivor_pairs + r.pruned_pairs &&
           r.survivor_pairs == ref_kept &&
           r.evaluations == r.candidate_pairs && !r.candidate_jobs.empty();
  };
  bc.check_output = [&](const mr::Cluster&, const RunReport&,
                        const std::vector<Element>& out) {
    return out == expected;
  };

  LayerInputs layers;
  layers.kernel_pairs_per_s =
      static_cast<double>(pair_count(kSimjoinV)) / single_s;
  layers.base_pairs = pair_count(kSimjoinV);
  Outcome out = run_batch(args, bc, "simjoin-sparse", layers);
  out.notes.push_back(note("reference survivors", ref_kept, "count"));
  if (args.trace) add_layer_metrics(layers, out);
  return out;
}

}  // namespace perfbench
