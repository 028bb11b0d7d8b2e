#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>

#include "data/build.hpp"
#include "util/rng.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& purpose) {
  // FNV-1a over the purpose, mixed with the seed through one Rng step.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : purpose) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  wf::util::Rng rng(seed * 0x9e3779b97f4a7c15ull ^ h);
  return rng.next();
}

double Samples::quantile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const std::size_t rank =
      static_cast<std::size_t>(std::clamp(p, 0.0, 1.0) * static_cast<double>(sorted.size() - 1));
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  return sorted[rank];
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

std::pair<double, double> Samples::tail() const {
  for (const double p : {0.999, 0.99, 0.9, 0.5}) {
    if (static_cast<double>(values_.size()) * (1.0 - p) >= 10.0) return {quantile(p), p};
  }
  if (values_.empty()) return {0.0, 0.0};
  return {median(), 0.5};
}

double LayerTimer::seconds(const std::string& layer) const {
  const auto it = entries_.find(layer);
  return it == entries_.end() ? 0.0 : it->second.seconds;
}

double LayerTimer::work(const std::string& layer) const {
  const auto it = entries_.find(layer);
  return it == entries_.end() ? 0.0 : it->second.work;
}

double LayerTimer::rate(const std::string& layer) const {
  const double s = seconds(layer);
  return s > 0.0 ? work(layer) / s : 0.0;
}

wf::netsim::Website make_site(int pages, std::uint64_t site_seed) {
  wf::netsim::WikiSiteConfig config;
  config.n_pages = pages;
  config.seed = site_seed;
  return wf::netsim::make_wiki_site(config);
}

wf::trace::SequenceOptions sequence_options() { return {}; }  // 3 sequences x 64 steps

wf::core::EmbeddingConfig embedding_config() {
  wf::core::EmbeddingConfig config;
  const wf::trace::SequenceOptions seq = sequence_options();
  config.n_sequences = seq.n_sequences;
  config.timesteps = seq.timesteps;
  config.train_iterations = kTrainIterations;
  return config;
}

wf::data::Dataset crawl(const wf::netsim::Website& site, const std::vector<int>& pages,
                        int loads, std::uint64_t seed, LayerTimer& timer) {
  static const wf::netsim::ServerFarm farm = wf::netsim::ServerFarm::for_wiki();
  std::vector<int> all = pages;
  if (all.empty()) {
    all.resize(site.pages.size());
    std::iota(all.begin(), all.end(), 0);
  }
  wf::data::DatasetBuildOptions options;
  options.samples_per_class = loads;
  options.sequence = sequence_options();
  // Chunks of pages keep the raw captures of one chunk in memory at a time;
  // each chunk gets its own crawl seed, so the result depends on the seed
  // and the chunk size, never on the pool size.
  constexpr std::size_t kChunkPages = 500;
  wf::data::Dataset out(options.sequence.feature_dim());
  for (std::size_t lo = 0; lo < all.size(); lo += kChunkPages) {
    const std::vector<int> chunk(all.begin() + static_cast<std::ptrdiff_t>(lo),
                                 all.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(all.size(), lo + kChunkPages)));
    options.seed = derive_seed(seed, "chunk" + std::to_string(lo));
    const double n = static_cast<double>(chunk.size()) * loads;
    const wf::data::CaptureCorpus corpus = timer.time(
        "netsim", n, [&] { return wf::data::collect_captures(site, farm, chunk, options); });
    const wf::data::Dataset encoded = timer.time(
        "trace", n, [&] { return wf::data::encode_corpus(corpus, options.sequence); });
    for (std::size_t i = 0; i < encoded.size(); ++i) out.add(encoded[i]);
  }
  return out;
}

double mlp_macs_per_row(const wf::core::EmbeddingConfig& config) {
  std::vector<std::size_t> sizes{config.input_dim()};
  sizes.insert(sizes.end(), config.hidden.begin(), config.hidden.end());
  sizes.push_back(config.embedding_dim);
  double macs = 0.0;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
    macs += static_cast<double>(sizes[i]) * static_cast<double>(sizes[i + 1]);
  return macs;
}

std::unique_ptr<wf::core::AdaptiveFingerprinter> train_attacker(const wf::data::Dataset& train,
                                                                LayerTimer& timer) {
  const wf::core::EmbeddingConfig config = embedding_config();
  auto attacker = std::make_unique<wf::core::AdaptiveFingerprinter>(config, kKnnK);
  timer.time("train", config.train_iterations, [&] { return attacker->provision(train); });
  attacker->initialize(train);
  return attacker;
}

double top1(const std::vector<std::vector<wf::core::RankedLabel>>& rankings,
            const wf::data::Dataset& truth) {
  if (rankings.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < rankings.size(); ++i)
    if (!rankings[i].empty() && rankings[i].front().label == truth[i].label) ++hits;
  return static_cast<double>(hits) / static_cast<double>(rankings.size());
}

bool same_ranking(const std::vector<wf::core::RankedLabel>& a,
                  const std::vector<wf::core::RankedLabel>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].votes != b[i].votes) return false;
    // Bit-level equality: the wire carries distances as raw doubles.
    if (std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)) != 0) return false;
  }
  return true;
}

namespace {

// Median duration of `fn` in seconds after one discarded warm-up call, over
// at least three calls and 0.3 s.
template <typename Fn>
Samples timed_calls(Fn&& fn) {
  fn();
  Samples s;
  const Clock::time_point start = Clock::now();
  while (s.size() < 3 || seconds_since(start) < 0.3) {
    const Clock::time_point t = Clock::now();
    fn();
    s.add(seconds_since(t));
  }
  return s;
}

}  // namespace

void add_model_layers(const wf::core::AdaptiveFingerprinter& attacker,
                      const wf::data::Dataset& queries, const LayerTimer& timer,
                      Result& result) {
  const auto count = [](double work) { return static_cast<std::size_t>(work); };
  result.emit({"netsim.loads_per_s", timer.rate("netsim"), "1/s", count(timer.work("netsim")),
               "collect_captures"});
  result.emit({"trace.encodes_per_s", timer.rate("trace"), "1/s", count(timer.work("trace")),
               "encode_corpus"});
  const wf::core::EmbeddingConfig& config = attacker.model().config();
  const double steps_per_s = timer.rate("train");
  // Computed, not counted: forward 2 flops per multiply-add, backward twice
  // that (weight and input gradients), over the 2 x batch_pairs rows of a
  // contrastive step.
  const double flops_per_step =
      6.0 * mlp_macs_per_row(config) * 2.0 * static_cast<double>(config.batch_pairs);
  result.emit({"core.train_steps_per_s", steps_per_s, "1/s", count(timer.work("train")),
               "provision"});
  result.emit({"core.train_gflops", steps_per_s * flops_per_step / 1e9, "GFLOP/s",
               count(timer.work("train")), "computed from layer sizes: 6 x MACs x rows/step"});

  constexpr std::size_t kLayerQueries = 128;
  wf::data::Dataset subset(queries.feature_dim());
  for (std::size_t i = 0; i < std::min(kLayerQueries, queries.size()); ++i) subset.add(queries[i]);
  const double nq = static_cast<double>(subset.size());
  const Samples embed = timed_calls([&] { (void)attacker.model().embed_dataset(subset); });
  result.emit({"core.embed_rows_per_s", nq / embed.median(), "1/s", embed.size(),
               "embed_dataset, median call"});
  Samples one;
  for (std::size_t rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < subset.size(); ++i) {
      const Clock::time_point t = Clock::now();
      (void)attacker.model().embed(subset[i].features);
      if (rep > 0) one.add(seconds_since(t) * 1e6);  // the first sweep warms up
    }
  }
  result.emit({"core.embed_one_us", one.median(), "us", one.size(), "embed of one trace"});

  const wf::nn::Matrix embedded = attacker.model().embed(subset.to_matrix());
  const wf::core::ReferenceStore& exact = attacker.references();
  const wf::core::KnnClassifier& knn = attacker.classifier();
  const Samples rank = timed_calls([&] { (void)knn.rank_batch(exact, embedded); });
  const Samples scan = timed_calls([&] { (void)knn.scan_slice(exact, embedded, 0, 1); });
  const double rank_s = rank.median();
  result.emit({"knn.rank_us_per_query", rank_s / nq * 1e6, "us", rank.size(),
               "rank_batch on the exact store, " + std::to_string(exact.size()) + " rows"});
  result.emit({"knn.dist_gflops",
               2.0 * static_cast<double>(exact.size()) * static_cast<double>(exact.dim()) * nq /
                   rank_s / 1e9,
               "GFLOP/s", rank.size(), "computed: 2 x rows x dim per query / rank_batch time"});
  result.emit({"knn.finalize_share", (rank_s - scan.median()) / rank_s, "fraction",
               rank.size() + scan.size(), "(rank_batch - scan_slice) / rank_batch"});
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
