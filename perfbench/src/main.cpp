// perfbench: the repo benchmark's entry point. Runs one seeded workload against
// the wf library's public API, prints every metric by name with its unit
// and sample count, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) carry the end-to-end metrics; traced runs
// (--trace 1) the per-layer ones. Exit code 0 only when every check passed.
//
//   perfbench --workload pipeline|serve_open|serve_fanout|refs_churn
//             --seed N --seconds S --trace 0|1 --scratch DIR [--revision REV]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "nn/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

// The end-to-end and per-layer metric names BENCHMARK.json lists; every
// run emits all of one list.
const std::vector<std::string> kEndToEnd = {"setup_s", "peak_rss_mb", "top1_acc", "op_p50_ms"};
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"netsim.loads_per_s", "1/s"},       {"trace.encodes_per_s", "1/s"},
    {"core.train_steps_per_s", "1/s"},   {"core.train_gflops", "GFLOP/s"},
    {"core.embed_rows_per_s", "1/s"},    {"core.embed_one_us", "us"},
    {"knn.rank_us_per_query", "us"},     {"knn.dist_gflops", "GFLOP/s"},
    {"knn.finalize_share", "fraction"},  {"index.probe_us_per_query", "us"},
    {"index.rows_scanned_per_query", "rows"}, {"index.scan_fraction", "fraction"},
    {"index.build_s", "s"},              {"index.rebuilds", "count"},
    {"index.rebuild_s", "s"},            {"io.save_ms", "ms"},
    {"io.load_ms", "ms"},                {"io.model_bytes", "bytes"},
    {"serve.handler_p50_ms", "ms"},      {"serve.handler_p99_ms", "ms"},
    {"serve.server_ms", "ms"},           {"serve.queue_wait_ms", "ms"},
    {"serve.wave_batch_mean", "requests"}, {"serve.rejected", "count"},
    {"coord.rank_ms", "ms"},             {"coord.backend_scan_ms", "ms"},
    {"coord.scatter_ms", "ms"},          {"coord.merge_overhead_ms", "ms"},
    {"gen.late_p99_ms", "ms"},           {"obs.trace_overhead", "fraction"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload pipeline|serve_open|serve_fanout|refs_churn "
               "--seed N --seconds S --trace 0|1 --scratch DIR [--revision REV]\n";
  std::exit(2);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") options.workload = value;
      else if (arg == "--seed") options.seed = std::stoull(value);
      else if (arg == "--seconds") options.seconds = std::stod(value);
      else if (arg == "--trace") options.trace = std::stoi(value) != 0;
      else if (arg == "--scratch") options.scratch = value;
      else if (arg == "--revision") revision = value;
      else usage("unknown argument " + arg);
    } catch (const std::exception&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (options.scratch.empty()) usage("--scratch is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");

  std::printf("provenance workload=%s seed=%llu seconds=%g trace=%d nproc=%zu simd=%s "
              "pool_threads=%zu build=%s revision=%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, perfbench::usable_cpus(),
              wf::nn::simd_mode_name(wf::nn::simd_mode()), wf::util::global_pool().size(),
              PERFBENCH_BUILD_TYPE, revision.c_str());

  perfbench::Result result;
  try {
    if (options.workload == "pipeline") result = perfbench::run_pipeline(options);
    else if (options.workload == "serve_open") result = perfbench::run_serve(options, false);
    else if (options.workload == "serve_fanout") result = perfbench::run_serve(options, true);
    else if (options.workload == "refs_churn") result = perfbench::run_churn(options);
    else usage("unknown workload \"" + options.workload + "\"");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (!options.trace)
    result.emit({"peak_rss_mb", perfbench::peak_rss_mb(), "MB", 1, "ru_maxrss"});

  // A traced run reports every per-layer name; a layer this workload does
  // not exercise reads 0 with a sample count of 0.
  std::vector<std::pair<std::string, std::string>> wanted;
  if (options.trace) {
    wanted = kPerLayer;
    for (const auto& [name, unit] : kPerLayer)
      if (!result.json.count(name))
        result.emit({name, 0.0, unit, 0, "layer not exercised by this workload"});
  } else {
    for (const std::string& name : kEndToEnd) wanted.emplace_back(name, "");
  }

  for (const perfbench::Metric& m : result.printed)
    std::printf("metric %-30s %14.6g %-9s n=%-7zu %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.count, m.note.c_str());
  for (const std::string& failure : result.check_failures)
    std::printf("check FAILED: %s\n", failure.c_str());

  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    const auto it = result.json.find(name);
    if (it == result.json.end() || !std::isfinite(it->second.value)) {
      result.check_failures.push_back("metric " + name + " missing or not finite");
      std::printf("check FAILED: metric %s missing or not finite\n", name.c_str());
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + json_number(it->second.value) +
               ", \"unit\": \"" + it->second.unit + "\"}";
  }
  const bool correct = result.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", result.attempted, result.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
