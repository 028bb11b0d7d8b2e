#pragma once

// Shared plumbing of the perfbench workloads: run options, raw-sample
// statistics, the per-layer timer of traced runs, the result record every
// workload returns, and the seeded crawl/train fixtures. Everything here
// calls the wf library through its public headers only.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/embedding_config.hpp"
#include "data/dataset.hpp"
#include "netsim/browser.hpp"
#include "netsim/website.hpp"
#include "trace/sequence.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // directory for files a workload writes (inside the checkout)
};

// Derives independent 64-bit streams from the workload seed, one per named
// purpose ("crawl", "schedule", ...), so the inputs of each workload are a
// function of --seed alone.
std::uint64_t derive_seed(std::uint64_t seed, const std::string& purpose);

// Raw samples of one quantity. Percentiles come from the sorted samples
// (nearest rank, sorted[p * (n - 1)]), never from a bucketed histogram.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }
  double quantile(double p) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  // The highest of p99.9 / p99 / p90 / p50 that leaves at least ten samples
  // beyond it; returns {value, percentile}. {0, 0} when empty.
  std::pair<double, double> tail() const;

 private:
  std::vector<double> values_;
};

// One printed metric: value, unit, how many samples it summarises and an
// optional note (the percentile a tail stands for, what a count covers).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t count = 0;
  std::string note;
};

// What a workload run hands back to main: every metric it prints, the
// machine-readable subset for the final JSON line, the operation counts and
// the outcome of its correctness checks.
struct Result {
  std::vector<Metric> printed;
  std::map<std::string, Metric> json;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;

  void print(Metric m) { printed.push_back(std::move(m)); }
  // Printed and also emitted in the final JSON line.
  void emit(Metric m) {
    json[m.name] = m;
    printed.push_back(std::move(m));
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// Per-layer timer of traced runs: times a public call from outside the
// library and accumulates busy seconds and work units per layer name. With
// tracing off it only forwards the call, so untraced runs pay nothing.
class LayerTimer {
 public:
  explicit LayerTimer(bool on) : on_(on) {}

  template <typename Fn>
  decltype(auto) time(const std::string& layer, double work, Fn&& fn) {
    if (!on_) return fn();
    struct Record {
      LayerTimer* timer;
      const std::string& layer;
      double work;
      Clock::time_point start = Clock::now();
      ~Record() {
        Entry& e = timer->entries_[layer];
        const double s = seconds_since(start);
        e.seconds += s;
        e.work += work;
      }
    } record{this, layer, work};
    return fn();
  }

  double seconds(const std::string& layer) const;
  double work(const std::string& layer) const;
  // Work units per busy second; 0 when the layer never ran.
  double rate(const std::string& layer) const;

 private:
  struct Entry {
    double seconds = 0.0;
    double work = 0.0;
  };
  bool on_;
  std::map<std::string, Entry> entries_;
};

// ---- fixtures -------------------------------------------------------------

// The wiki-like site every workload crawls. Its structure is a fixed
// fixture; which loads are observed depends on the crawl seed.
inline constexpr std::uint64_t kSiteSeed = 4242;
inline constexpr std::uint64_t kUnseenSiteSeed = 777001;
inline constexpr int kClasses = 300;
inline constexpr int kLoadsPerClass = 25;
inline constexpr int kRefLoadsPerClass = 20;
inline constexpr int kTrainIterations = 1500;
inline constexpr int kKnnK = 40;

wf::netsim::Website make_site(int pages, std::uint64_t site_seed);
wf::trace::SequenceOptions sequence_options();
wf::core::EmbeddingConfig embedding_config();

// Crawl `loads` loads of every page in `pages` (all pages when empty) and
// encode them, in chunks of pages so the raw captures of a large crawl never
// sit in memory at once. Timed per chunk as layers "netsim" (loads) and
// "trace" (encodes).
wf::data::Dataset crawl(const wf::netsim::Website& site, const std::vector<int>& pages,
                        int loads, std::uint64_t seed, LayerTimer& timer);

// Multiply-adds of one forward pass of the embedding MLP per row, from the
// layer sizes (input x hidden... x embedding).
double mlp_macs_per_row(const wf::core::EmbeddingConfig& config);

// provision (timed as layer "train", in steps) + initialize.
std::unique_ptr<wf::core::AdaptiveFingerprinter> train_attacker(
    const wf::data::Dataset& train, LayerTimer& timer);

// Share of rankings whose first label equals the sample's label.
double top1(const std::vector<std::vector<wf::core::RankedLabel>>& rankings,
            const wf::data::Dataset& truth);

// Bit-identical comparison of two rankings (labels, votes, distances).
bool same_ranking(const std::vector<wf::core::RankedLabel>& a,
                  const std::vector<wf::core::RankedLabel>& b);

// CPUs this process may run on (nproc).
std::size_t usable_cpus();

// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// Per-layer metrics shared by every workload's traced run: crawl, encode
// and training rates from `timer`, plus timed embed and exact k-NN calls
// against `attacker`'s model and exact reference set on (up to 128 of)
// `queries`.
void add_model_layers(const wf::core::AdaptiveFingerprinter& attacker,
                      const wf::data::Dataset& queries, const LayerTimer& timer,
                      Result& result);

// Set-up is timed `times` times and reported as the median: `setup` returns
// a std::unique_ptr to the built state; all but the last build are freed
// before the next one starts.
template <typename Setup>
auto repeat_setup(int times, Samples& durations, Setup&& setup) {
  decltype(setup()) kept;
  for (int i = 0; i < times; ++i) {
    kept.reset();
    const Clock::time_point start = Clock::now();
    kept = setup();
    durations.add(seconds_since(start));
  }
  return kept;
}

// Workload entry points.
Result run_pipeline(const Options& options);
Result run_serve(const Options& options, bool fanout);
Result run_churn(const Options& options);

}  // namespace perfbench
