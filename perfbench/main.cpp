// pairbench — the pairmr benchmark program.
//
//   pairbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (batch-compute, batch-shipping, session-churn,
// simjoin-sparse; see README.md) for about --seconds seconds on inputs
// generated from --seed, checks every operation's output, prints the
// workload-specific metrics by name, and prints as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones (untraced operations only); with
// --trace 1 they are the per-layer ones, folded from a traced run.
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pairbench: " << why
            << "\nusage: pairbench --workload <batch-compute|batch-shipping|"
               "session-churn|simjoin-sparse> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  Outcome out;
  if (args.workload == "batch-compute") {
    out = run_batch_compute(args);
  } else if (args.workload == "batch-shipping") {
    out = run_batch_shipping(args);
  } else if (args.workload == "session-churn") {
    out = run_session_churn(args);
  } else if (args.workload == "simjoin-sparse") {
    out = run_simjoin_sparse(args);
  } else {
    usage("unknown workload " + args.workload);
  }

  const double rss = peak_rss_mib();
  const double worker_rss = peak_worker_rss_mib();
  const std::uint64_t attempted = out.ledger.attempted();
  const std::uint64_t failed = out.ledger.failed();
  const double failed_frac =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);

  std::cout << "workload " << args.workload << " (seed " << args.seed
            << (args.trace ? ", traced run" : ", untraced run") << ")\n";
  std::cout << note("setup_s", out.setup_s.median(), "s", out.setup_s.size())
            << "\n";
  if (out.op_name == "makespan") {
    std::cout << note("makespan_s", out.op_s.median(), "s", out.op_s.size())
              << "\n";
  }
  std::cout << note(out.op_name + "_p50_ms", 1e3 * out.op_s.median(), "ms",
                    out.op_s.size())
            << "\n"
            << note(out.op_name + "_p90_ms", 1e3 * out.op_s.quantile(0.9),
                    "ms", out.op_s.size())
            << "\n"
            << note(out.read_name + "_p50_us", 1e6 * out.read_s.median(), "us",
                    out.read_s.size())
            << "\n"
            << note(out.read_name + "_p90_us", 1e6 * out.read_s.quantile(0.9),
                    "us", out.read_s.size())
            << "\n"
            << note("peak_rss_mib", rss, "MiB") << "\n"
            << note("resident at window start", out.rss_window_start_mib,
                    "MiB")
            << "\n"
            << note("failed_ops_frac", failed_frac, "ratio") << "\n";
  if (worker_rss > 0.0) {
    std::cout << note("largest worker peak_rss_mib", worker_rss, "MiB")
              << "\n";
  }
  for (const auto& line : out.notes) std::cout << line << "\n";

  std::vector<std::pair<std::string, Metric>> metrics;
  if (args.trace) {
    metrics = out.layers;
  } else {
    metrics = {
        {"setup_s", {out.setup_s.median(), "s"}},
        {"op_p50_ms", {1e3 * out.op_s.median(), "ms"}},
        {"read_p50_us", {1e6 * out.read_s.median(), "us"}},
        {"peak_rss_mib", {rss, "MiB"}},
    };
  }

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json << ", ";
    json << "\"" << metrics[i].first << "\": {\"value\": "
         << json_number(metrics[i].second.value) << ", \"unit\": \""
         << metrics[i].second.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
