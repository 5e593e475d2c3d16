// session-churn: PairwiseSession on the fork backend with the shm plane,
// driven in a closed loop by one client.
//
// One cycle: a fresh cluster and session submit kBase clustered 32-d
// vectors, then kUpdates k = 1 updates follow. After each update the
// client calls query() and top_k() on the just-inserted id and top_k() on
// one seeded uniform id. Cycles repeat until the time is up; every cycle
// does the same work, so samples pool across cycles.
//
// Checks: per update, pairs_delta + pairs_reused == C(v+1, 2) and
// evaluations == v; every read against a brute-force pass over the
// current union; at cycle end, the session state byte-identical to a
// from-scratch in-process batch run over the union.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/intmath.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "pairwise/dataset.hpp"
#include "pairwise/session.hpp"
#include "workloads/generators.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

namespace {

using namespace pairmr;

constexpr std::uint64_t kBase = 400;
constexpr std::uint64_t kUpdates = 40;
constexpr std::size_t kTopK = 5;
constexpr int kExtraSetups = 10;

double score(std::string_view result) {
  return -workloads::decode_result(result);  // nearest partners first
}

// Brute-force answers over the first `v` elements.
class Oracle {
 public:
  Oracle(const PairwiseJob& job, const std::vector<std::string>& payloads)
      : job_(job) {
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      elems_.push_back({i, payloads[i], {}});
    }
  }

  Element query(ElementId id, std::uint64_t v) const {
    Element e{id, elems_[id].payload, {}};
    for (ElementId other = 0; other < v; ++other) {
      if (other == id) continue;
      const Element& lo = elems_[std::min(id, other)];
      const Element& hi = elems_[std::max(id, other)];
      std::string r = job_.compute(lo, hi);
      if (job_.keep(lo, hi, r)) e.results.push_back({other, std::move(r)});
    }
    return e;
  }

  std::vector<ResultEntry> top_k(ElementId id, std::uint64_t v) const {
    std::vector<ResultEntry> results = query(id, v).results;
    std::stable_sort(results.begin(), results.end(),
                     [](const ResultEntry& a, const ResultEntry& b) {
                       return score(a.result) > score(b.result);
                     });
    if (results.size() > kTopK) results.resize(kTopK);
    return results;
  }

 private:
  const PairwiseJob& job_;
  std::vector<Element> elems_;
};

}  // namespace

Outcome run_session_churn(const Args& args) {
  Rng rng(args.seed);
  const auto points = clustered_points(kBase + kUpdates, 32, 8, 12.0, rng);
  const double threshold = distance_quantile(points, 0.02, 1000000, rng);
  const auto payloads = workloads::vector_payloads(points);
  const std::vector<std::string> base(payloads.begin(),
                                      payloads.begin() + kBase);
  const std::uint64_t read_seed = rng.next();

  PairwiseJob job;
  job.compute = workloads::euclidean_kernel();
  job.prepared = workloads::euclidean_prepared();
  job.keep = workloads::keep_below(threshold);

  SessionOptions options;
  options.batch_scheme = SchemeKind::kBlock;
  options.run.backend = mr::BackendKind::kFork;
  options.run.shuffle_plane = mr::ShufflePlane::kShm;
  options.score = score;

  const Oracle oracle(job, payloads);

  Outcome out;
  out.op_name = "update";
  out.read_name = "reads";
  LayerInputs layers;
  Samples query_miss_s;
  Samples top_k_s;

  // The single-thread kernel rate over the final union's pairs.
  layers.kernel_pairs_per_s =
      static_cast<double>(pair_count(payloads.size())) /
      evaluate_all(job, payloads, [](auto, auto, const auto&) {});

  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  std::uint64_t invalidated = 0;
  std::uint64_t updates_done = 0;

  // Set-up: cluster, session, submit (dataset write + batch run). The
  // session is destroyed before its cluster, outside the timed part.
  struct Live {
    std::unique_ptr<mr::Cluster> cluster;
    std::unique_ptr<PairwiseSession> session;
    RunReport submitted;
  };
  auto set_up = [&](Live& live) {
    return out.ledger.attempt("session submit", [&] {
      out.setup_s.add(time_call([&] {
        live.cluster = std::make_unique<mr::Cluster>(cluster_config());
        live.session =
            std::make_unique<PairwiseSession>(*live.cluster, job, options);
        live.submitted = live.session->submit(base);
      }));
      return live.submitted.evaluations == pair_count(kBase);
    });
  };
  // Set-up alone, repeated so its median rests on more samples than the
  // cycles give; every cycle below adds one more.
  for (int rep = 0; rep < kExtraSetups; ++rep) {
    Live live;
    set_up(live);
  }
  out.rss_window_start_mib = reset_peak_rss();

  mr::Tracer tracer;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t cycle = 0;
       cycle < (args.trace ? 2u : 1u) || before(start, args.seconds);
       ++cycle) {
    const bool traced = args.trace && cycle % 2 == 1;
    Live live;
    if (!set_up(live)) continue;
    mr::Cluster* cluster = live.cluster.get();
    PairwiseSession* session = live.session.get();
    RunReport last = live.submitted;
    layers.dataset_write_s.add(time_call(
        [&] { write_dataset(*cluster, "/probe", base); }));
    cluster->dfs().remove_prefix("/probe");
    layers.scheme_build_s.add(time_call([&] {
      PairwiseSession::batch_scheme(SchemeKind::kBlock, kBase, kNodes, 0,
                                    PlaneConstruction::kTheorem2Prime);
    }));

    cluster->set_tracer(traced ? &tracer : nullptr);
    Rng reads(read_seed);
    bool healthy = true;
    for (std::uint64_t u = 0; u < kUpdates && healthy; ++u) {
      const std::uint64_t v = kBase + u;
      tracer.clear();
      RunReport report;
      double wall = 0.0;
      healthy = out.ledger.attempt("session update", [&] {
        wall = time_call([&] { report = session->update({payloads[v]}); });
        return report.pairs_delta + report.pairs_reused ==
                   pair_count(v + 1) &&
               report.evaluations == v;
      });
      if (!healthy) break;
      OpLayers l = fold_report(report, wall);
      l.workers_forked -= last.workers_forked;
      l.workers_reused -= last.workers_reused;
      last = report;
      ++updates_done;
      if (traced) {
        fold_spans(tracer, l);
        layers.traced.push_back(l);
        layers.traced_op_s.add(wall);
      } else {
        out.op_s.add(wall);
        layers.untraced_op_s.add(wall);
      }

      // Reads: query and top_k of the new id (a cache miss, then a hit),
      // then top_k of a seeded uniform id (mostly a hit). One read sample
      // is the three together, so the miss shows in its median.
      auto query = [&](ElementId id) {
        double s = 0.0;
        out.ledger.attempt("session query", [&] {
          const Element* got = nullptr;
          s = time_call([&] { got = &session->query(id); });
          return *got == oracle.query(id, v + 1);
        });
        return s;
      };
      auto top_k = [&](ElementId id) {
        double s = 0.0;
        out.ledger.attempt("session top_k", [&] {
          std::vector<ResultEntry> got;
          s = time_call([&] { got = session->top_k(id, kTopK); });
          return got == oracle.top_k(id, v + 1);
        });
        return s;
      };
      const double miss_s = query(v);
      const double new_top_k_s = top_k(v);
      const double uniform_top_k_s = top_k(reads.below(v + 1));
      if (!traced) {
        out.read_s.add(miss_s + new_top_k_s + uniform_top_k_s);
        query_miss_s.add(miss_s);
        top_k_s.add(new_top_k_s);
        top_k_s.add(uniform_top_k_s);
      }
    }
    cluster->set_tracer(nullptr);
    if (!healthy) continue;

    // Cycle end: state identical to a from-scratch batch over the union.
    out.ledger.attempt("session state vs batch", [&] {
      const std::uint64_t v = session->num_elements();
      if (session->cumulative_evaluations() != pair_count(v)) return false;
      mr::Cluster fresh(cluster_config());
      RunSpec spec;
      spec.input_paths = write_dataset(
          fresh, "/batch", {payloads.begin(), payloads.begin() + v});
      spec.scheme = PairwiseSession::batch_scheme(
          SchemeKind::kBlock, v, kNodes, 0, PlaneConstruction::kTheorem2Prime);
      spec.job = job;
      spec.options.backend = mr::BackendKind::kInProcess;
      const RunReport batch = PairwiseRunner(fresh).run(spec);
      return snapshot(*cluster, session->state_dir()) ==
             snapshot(fresh, batch.output_dir);
    });
    layers.output_read_s.add(time_call(
        [&] { read_elements(*cluster, session->state_dir()); }));

    const SessionCacheStats& stats = session->cache_stats();
    hits += stats.hits;
    lookups += stats.hits + stats.misses;
    invalidated += stats.invalidated;
  }

  out.notes.push_back(note("query_p50_us (new id, a cache miss)",
                           1e6 * query_miss_s.median(), "us",
                           query_miss_s.size()));
  out.notes.push_back(note("top_k_p50_us", 1e6 * top_k_s.median(), "us",
                           top_k_s.size()));
  if (args.trace) {
    layers.cache_hit_ratio =
        lookups == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(lookups);
    layers.invalidated_per_update =
        updates_done == 0 ? 0.0
                          : static_cast<double>(invalidated) /
                                static_cast<double>(updates_done);
    add_layer_metrics(layers, out);
    out.notes.push_back(note("session.delta_s",
                             median_of(layers.traced,
                                       [](auto& l) { return l.compare_s; }),
                             "s", layers.traced.size()));
    out.notes.push_back(note("session.merge_s",
                             median_of(layers.traced,
                                       [](auto& l) { return l.aggregate_s; }),
                             "s", layers.traced.size()));
  }
  return out;
}

}  // namespace perfbench
