// refs_churn: reference scale with writes beside reads. About 250k
// references of 12,500 classes sit behind an IVF index (C = 512, P = 16);
// the timed phase alternates fixed-size fingerprint_batch query batches
// with adapt_class swaps from a second crawl, churning past the index's
// rebuild threshold so re-clustering is part of what is measured.

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>

#include "common.hpp"
#include "index/ivf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr int kChurnClasses = 12500;
constexpr int kTrainClasses = 300;
constexpr int kSwapPool = 512;        // classes with fresh loads for adapt_class
constexpr std::size_t kBatch = 256;   // queries per fingerprint_batch
constexpr int kSwapsPerBatch = 8;
constexpr std::size_t kClusters = 512;
constexpr std::size_t kProbes = 16;
// Re-cluster once churn (rows added + removed) passes 3 % of the built size,
// about 190 swaps of 20-load classes: at least once per run.
constexpr double kRebuildChurn = 0.03;
constexpr std::size_t kExactChecks = 64;  // queries of the P = C check
constexpr int kTopN = 10;

struct Fixture {
  std::unique_ptr<wf::core::AdaptiveFingerprinter> attacker;
  wf::data::Dataset fresh;    // second crawl: 20 loads of each swap class
  std::vector<int> swap_order;
  std::vector<wf::data::Dataset> batches;  // fresh query loads, kBatch each
  double build_s = 0.0;
};

std::unique_ptr<Fixture> build(const Options& options, LayerTimer& timer) {
  auto f = std::make_unique<Fixture>();
  const wf::netsim::Website site = make_site(kChurnClasses, kSiteSeed);
  {
    const wf::data::Dataset refs =
        crawl(site, {}, kRefLoadsPerClass, derive_seed(options.seed, "crawl"), timer);
    const wf::data::Dataset train =
        refs.filter([](int label) { return label < kTrainClasses; });
    f->attacker = train_attacker(train, timer);
    f->attacker->initialize(refs);
  }
  wf::index::IvfConfig config;
  config.clusters = kClusters;
  config.probes = kProbes;
  config.rebuild_churn = kRebuildChurn;
  const Clock::time_point t = Clock::now();
  f->attacker->build_index(config);
  f->build_s = seconds_since(t);

  // Swap classes and query pages: seeded draws from every class.
  wf::util::Rng rng(derive_seed(options.seed, "churn-order"));
  std::vector<int> pages(kChurnClasses);
  std::iota(pages.begin(), pages.end(), 0);
  for (std::size_t i = pages.size() - 1; i > 0; --i) std::swap(pages[i], pages[rng.index(i + 1)]);
  std::vector<int> swap_pages(pages.begin(), pages.begin() + kSwapPool);
  std::sort(swap_pages.begin(), swap_pages.end());
  f->fresh =
      crawl(site, swap_pages, kRefLoadsPerClass, derive_seed(options.seed, "fresh"), timer);
  f->swap_order = swap_pages;
  for (std::size_t i = f->swap_order.size() - 1; i > 0; --i)
    std::swap(f->swap_order[i], f->swap_order[rng.index(i + 1)]);

  // Queries: one fresh load of every page, in seeded order.
  const wf::data::Dataset queries =
      crawl(site, {}, 1, derive_seed(options.seed, "queries"), timer);
  std::vector<std::size_t> order(queries.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size() - 1; i > 0; --i) std::swap(order[i], order[rng.index(i + 1)]);
  for (std::size_t lo = 0; lo + kBatch <= order.size(); lo += kBatch) {
    wf::data::Dataset batch(queries.feature_dim());
    for (std::size_t i = lo; i < lo + kBatch; ++i) batch.add(queries[order[i]]);
    f->batches.push_back(std::move(batch));
  }

  // Warm-up: one read and one swap, discarded.
  (void)f->attacker->fingerprint_batch(f->batches.front());
  f->attacker->adapt_class(f->swap_order.front(), f->fresh);
  return f;
}

struct Phase {
  Samples batch_s;
  Samples adapt_ms;
  Samples rebuild_ms;  // adapt_class calls that re-clustered
  std::size_t queries = 0;
  std::size_t hits = 0;
  std::size_t swaps = 0;
  double adapt_total_s = 0.0;
  std::uint64_t rows_scanned = 0;
};

// Alternates one query batch with kSwapsPerBatch swaps until `seconds` have
// passed and at least one swap re-clustered the index.
Phase churn_phase(Fixture& f, double seconds, std::size_t& cursor, Result& result) {
  Phase p;
  wf::obs::Counter& rebuilds = wf::obs::Registry::global().counter("index.rebuilds_total");
  wf::obs::Counter& rows = wf::obs::Registry::global().counter("index.rows_scanned");
  const Clock::time_point start = Clock::now();
  for (std::size_t b = 0; seconds_since(start) < seconds || p.rebuild_ms.empty(); ++b) {
    if (seconds_since(start) > 3 * seconds + 30) break;  // the check below reports it
    const wf::data::Dataset& batch = f.batches[(cursor + b) % f.batches.size()];
    const std::uint64_t rows_before = rows.value();
    Clock::time_point t = Clock::now();
    const auto ranked = f.attacker->fingerprint_batch(batch);
    p.batch_s.add(seconds_since(t));
    p.rows_scanned += rows.value() - rows_before;
    p.queries += batch.size();
    for (std::size_t i = 0; i < ranked.size(); ++i)
      if (!ranked[i].empty() && ranked[i].front().label == batch[i].label) ++p.hits;
    result.attempted += batch.size();
    for (int s = 0; s < kSwapsPerBatch; ++s) {
      const int label = f.swap_order[(cursor * kSwapsPerBatch + p.swaps) % f.swap_order.size()];
      const std::uint64_t before = rebuilds.value();
      t = Clock::now();
      f.attacker->adapt_class(label, f.fresh);
      const double ms = seconds_since(t) * 1e3;
      p.adapt_ms.add(ms);
      p.adapt_total_s += ms / 1e3;
      if (rebuilds.value() != before) p.rebuild_ms.add(ms);
      ++p.swaps;
      ++result.attempted;
    }
  }
  cursor += p.batch_s.size();
  result.check(!p.rebuild_ms.empty(), "refs_churn: the run never crossed rebuild_churn");
  return p;
}

// Each query's kTopN nearest reference rows (global insertion ids) from a
// single-slice scan, which holds every shard's k best.
std::vector<std::vector<std::uint64_t>> top_rows(const wf::core::SliceScan& scan) {
  std::vector<std::vector<std::uint64_t>> top(scan.candidates.size());
  for (std::size_t q = 0; q < scan.candidates.size(); ++q) {
    std::vector<wf::core::Candidate> c = scan.candidates[q];
    std::sort(c.begin(), c.end());
    for (std::size_t i = 0; i < std::min<std::size_t>(kTopN, c.size()); ++i)
      top[q].push_back(c[i].second >> wf::core::kCandidateClassBits);
    std::sort(top[q].begin(), top[q].end());
  }
  return top;
}

}  // namespace

Result run_churn(const Options& options) {
  Result result;
  LayerTimer timer(options.trace);
  Samples setups, builds;
  const std::unique_ptr<Fixture> owned = repeat_setup(kSetups, setups, [&] {
    std::unique_ptr<Fixture> f = build(options, timer);
    builds.add(f->build_s);
    return f;
  });
  Fixture& f = *owned;
  result.emit({"setup_s", setups.median(), "s", setups.size(),
               "median set-up: crawl, train, initialize, IVF build, fresh loads, warm-up"});

  std::size_t cursor = 0;
  Phase phase;
  if (!options.trace) {
    phase = churn_phase(f, options.seconds, cursor, result);
  } else {
    const Phase plain = churn_phase(f, options.seconds / 2, cursor, result);
    wf::obs::set_enabled(true);
    phase = churn_phase(f, options.seconds / 2, cursor, result);
    wf::obs::set_enabled(false);
    result.emit({"obs.trace_overhead", phase.batch_s.median() / plain.batch_s.median() - 1.0,
                 "fraction", phase.batch_s.size() + plain.batch_s.size(),
                 "traced / untraced median query batch - 1"});
  }
  const double ivf_qps = static_cast<double>(kBatch) / phase.batch_s.median();
  const double top1_acc = static_cast<double>(phase.hits) / static_cast<double>(phase.queries);

  // Warm, repeated exact scan over the same queries, on a copy of the
  // churned attacker with its index dropped.
  std::unique_ptr<wf::core::Attacker> exact_copy = f.attacker->clone();
  auto& exact = dynamic_cast<wf::core::AdaptiveFingerprinter&>(*exact_copy);
  exact.clear_index();
  const wf::data::Dataset& probe = f.batches.front();
  (void)exact.fingerprint_batch(probe);  // warm-up
  Samples exact_s;
  while (exact_s.size() < 3) {
    const Clock::time_point t = Clock::now();
    (void)exact.fingerprint_batch(probe);
    exact_s.add(seconds_since(t));
  }
  const double exact_qps = static_cast<double>(probe.size()) / exact_s.median();

  // recall@10 of the IVF rows against the exact rows, same queries.
  const auto ivf_top = top_rows(f.attacker->scan_slice(probe, 0, 1));
  const auto exact_top = top_rows(exact.scan_slice(probe, 0, 1));
  double recall_sum = 0.0;
  for (std::size_t q = 0; q < exact_top.size(); ++q) {
    std::vector<std::uint64_t> common;
    std::set_intersection(exact_top[q].begin(), exact_top[q].end(), ivf_top[q].begin(),
                          ivf_top[q].end(), std::back_inserter(common));
    recall_sum += static_cast<double>(common.size()) / static_cast<double>(exact_top[q].size());
  }
  const double recall10 = recall_sum / static_cast<double>(exact_top.size());

  // Correctness: the churned index probed at P = C ranks exactly like the
  // exact store on a seeded subset of the queries.
  wf::index::IvfReferenceStore all_probes = *f.attacker->ivf_index();
  all_probes.set_probes(0);
  wf::data::Dataset subset(probe.feature_dim());
  wf::util::Rng pick(derive_seed(options.seed, "exact-check"));
  for (std::size_t i = 0; i < kExactChecks; ++i) subset.add(probe[pick.index(probe.size())]);
  const wf::nn::Matrix embedded = f.attacker->model().embed(subset.to_matrix());
  const auto via_ivf = f.attacker->classifier().rank_batch(all_probes, embedded);
  const auto via_exact = f.attacker->classifier().rank_batch(f.attacker->references(), embedded);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < via_ivf.size(); ++i)
    if (!same_ranking(via_ivf[i], via_exact[i])) ++mismatched;
  result.attempted += via_ivf.size();
  result.failed += mismatched;
  result.check(mismatched == 0, "refs_churn: IVF at P = C differs from the exact scan");
  result.check(recall10 >= 0.8, "refs_churn: recall@10 below the 0.8 floor");
  result.check(top1_acc >= 0.03,
               "refs_churn: top-1 during churn below the 0.03 floor (chance is 0.00008)");

  const std::size_t refs = f.attacker->references().size();
  if (!options.trace) {
    result.print({"ivf_qps", ivf_qps, "q/s", phase.batch_s.size(),
                  "median fingerprint_batch of 256 during churn, C=512 P=16"});
    result.print({"exact_qps", exact_qps, "q/s", exact_s.size(),
                  "median warm exact fingerprint_batch of the same 256"});
    result.print({"recall10", recall10, "fraction", exact_top.size(), "IVF rows vs exact rows"});
    result.print({"adapt_per_s", static_cast<double>(phase.swaps) / phase.adapt_total_s,
                  "classes/s", phase.swaps, "incl. rebuilds"});
    result.print({"adapt_p50_ms", phase.adapt_ms.median(), "ms", phase.adapt_ms.size(),
                  "median adapt_class"});
    result.print({"rebuilds", static_cast<double>(phase.rebuild_ms.size()), "count",
                  phase.swaps, "re-clusterings during the run"});
    result.print({"references", static_cast<double>(refs), "rows", 1, "after churn"});
    result.emit({"op_p50_ms", phase.batch_s.median() * 1e3, "ms", phase.batch_s.size(),
                 "median fingerprint_batch of 256 during churn (= 256 / ivf_qps)"});
    result.emit({"top1_acc", top1_acc, "fraction", phase.queries,
                 "top-1 of IVF answers during churn"});
    return result;
  }

  // Traced: index layer from outside the library, then the shared layers.
  const wf::index::IvfReferenceStore& ivf = *f.attacker->ivf_index();
  const wf::nn::Matrix probe_rows = f.attacker->model().embed(probe.to_matrix());
  std::vector<std::size_t> shards;
  Samples probe_us;
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t q = 0; q < probe_rows.rows(); ++q) {
      const Clock::time_point t = Clock::now();
      ivf.probe_shards(probe_rows.row_span(q), shards);
      if (rep > 0) probe_us.add(seconds_since(t) * 1e6);
    }
  }
  const double rows_per_query =
      static_cast<double>(phase.rows_scanned) / static_cast<double>(phase.queries);
  result.emit({"index.probe_us_per_query", probe_us.median(), "us", probe_us.size(),
               "probe_shards, median call"});
  result.emit({"index.rows_scanned_per_query", rows_per_query, "rows", phase.queries,
               "index.rows_scanned delta / queries"});
  result.emit({"index.scan_fraction", rows_per_query / static_cast<double>(refs), "fraction",
               phase.queries, "rows scanned / references"});
  result.emit({"index.build_s", builds.median(), "s", builds.size(), "build_index, median"});
  result.emit({"index.rebuilds", static_cast<double>(phase.rebuild_ms.size()), "count",
               phase.swaps, "re-clusterings in the traced half"});
  result.emit({"index.rebuild_s", phase.rebuild_ms.median() / 1e3, "s", phase.rebuild_ms.size(),
               "adapt_class calls that re-clustered, median"});
  add_model_layers(*f.attacker, probe, timer, result);
  return result;
}

}  // namespace perfbench
