// perfbench — one workload, one run:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --tmp-dir <dir>
//
// Prints a human-readable report, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs carry
// the end-to-end metrics; traced runs carry the per-layer metrics, print
// each span name's total and self time, and write every span to
// <tmp-dir>/spans.json. perfbench/run.py builds this binary and owns the
// temporary directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ops_per_s", "op/s"},
    {"op_p50_ms", "ms"},
};

/// Per-layer metrics that come from a workload's own run (service and
/// server snapshots, scenario counters) rather than from measure_layers().
const std::vector<MetricDef> kWorkloadLayers = {
    {"svc.mean_batch", "sig/batch"},
    {"svc.singles_share", "ratio"},
    {"svc.fallbacks_per_batch", "1/batch"},
    {"svc.inproc_p50_us", "us"},
    {"svc.resolve_p50_us", "us"},
    {"netd.backpressure_pauses", "count"},
    {"netd.bytes_per_request", "B/req"},
    {"aodv.crypto_share", "ratio"},
    {"aodv.sign_ops_per_run", "op/run"},
    {"aodv.verify_ops_per_run", "op/run"},
    {"scen.aodv_job_s", "s"},
    {"scen.dsr_job_s", "s"},
    {"sim.us_per_frame", "us"},
};

std::string micro_unit(const std::string& name) {
  if (name == "kgc.fsyncs_per_enroll") return "1/enroll";
  const auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_ns")) return "ns";
  if (ends("_us")) return "us";
  return "count";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload verify_tcp|kgc_churn|manet_paper|manet_scale\n"
               "                 --seed N --seconds S --trace 0|1 --tmp-dir DIR\n");
  return 2;
}

void print_metric(bool& first, const std::string& name, double value, const std::string& unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
              name.c_str(), value, unit.c_str());
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_workload = false, have_tmp = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0)) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      opts.trace = value == "1";
    } else if (arg == "--tmp-dir") {
      opts.tmp_dir = value;
      have_tmp = true;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_tmp) return usage();

  Tracer tracer(opts.trace);
  RunResult result;
  try {
    if (opts.workload == "verify_tcp") {
      result = run_verify_tcp(opts, tracer);
    } else if (opts.workload == "kgc_churn") {
      result = run_kgc_churn(opts, tracer);
    } else if (opts.workload == "manet_paper") {
      result = run_manet_paper(opts, tracer);
    } else if (opts.workload == "manet_scale") {
      result = run_manet_scale(opts, tracer);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opts.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& why : result.failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  }

  std::vector<std::pair<std::string, std::string>> wanted;  // name, unit
  if (!opts.trace) {
    for (const auto& m : kEndToEnd) wanted.emplace_back(m.name, m.unit);
  } else {
    for (const auto& name : micro_layer_metrics()) wanted.emplace_back(name, micro_unit(name));
    for (const auto& m : kWorkloadLayers) wanted.emplace_back(m.name, m.unit);
    std::printf("spans (self time = duration minus time covered by child spans):\n");
    for (const SpanTotals& t : tracer.totals()) {
      std::printf("  %-32s n=%-7zu total %10.2f ms  self %10.2f ms\n", t.name.c_str(), t.count,
                  t.total_ms, t.self_ms);
    }
    if (!tracer.write_json(opts.tmp_dir + "/spans.json")) {
      std::fprintf(stderr, "perfbench: could not write the span dump\n");
      return 1;
    }
    std::string absent;
    for (const auto& [name, unit] : wanted) {
      if (!result.metrics.contains(name)) absent += " " + name;
    }
    if (!absent.empty()) {
      std::printf("layers not on this workload's path (reported as 0):%s\n", absent.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, unit] : wanted) {
    const auto it = result.metrics.find(name);
    print_metric(first, name, it == result.metrics.end() ? 0.0 : it->second, unit);
  }
  std::printf("}}\n");
  return 0;
}
