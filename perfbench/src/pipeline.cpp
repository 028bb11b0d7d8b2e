// pipeline: the attacker's offline life cycle, repeated in passes. One pass
// crawls the 300-class site, trains (provision + initialize), fingerprints
// the held-out loads, then retargets onto 1,000 pages it never trained on
// and evaluates those (the paper's claim that new pages need no retraining).

#include <memory>

#include "common.hpp"
#include "data/splits.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

constexpr int kUnseenClasses = 1000;
constexpr int kSetups = 3;

struct Sites {
  wf::netsim::Website seen;
  wf::netsim::Website unseen;
};

struct PassOutcome {
  double seen_top1 = 0.0;
  double unseen_top1 = 0.0;
  std::unique_ptr<wf::core::AdaptiveFingerprinter> attacker;
  wf::data::Dataset unseen_queries;
};

PassOutcome run_pass(const Sites& sites, std::uint64_t seed, LayerTimer& timer) {
  PassOutcome out;
  const wf::data::Dataset crawled =
      crawl(sites.seen, {}, kLoadsPerClass, derive_seed(seed, "crawl"), timer);
  const wf::data::SampleSplit split =
      wf::data::split_samples(crawled, kRefLoadsPerClass, derive_seed(seed, "split"));
  out.attacker = train_attacker(split.first, timer);
  out.seen_top1 = top1(out.attacker->fingerprint_batch(split.second), split.second);

  const wf::data::Dataset fresh =
      crawl(sites.unseen, {}, kLoadsPerClass, derive_seed(seed, "unseen-crawl"), timer);
  wf::data::SampleSplit unseen =
      wf::data::split_samples(fresh, kRefLoadsPerClass, derive_seed(seed, "unseen-split"));
  out.attacker->set_references(unseen.first);
  out.unseen_top1 = top1(out.attacker->fingerprint_batch(unseen.second), unseen.second);
  out.unseen_queries = std::move(unseen.second);
  return out;
}

// Passes until `seconds` have elapsed (at least three); returns each pass's
// duration and keeps the last pass's outcome.
Samples run_passes(const Sites& sites, std::uint64_t seed, double seconds, LayerTimer& timer,
                   PassOutcome& last, Result& result) {
  Samples durations;
  const Clock::time_point start = Clock::now();
  while (durations.size() < 3 || seconds_since(start) < seconds) {
    const Clock::time_point t = Clock::now();
    PassOutcome pass = run_pass(sites, seed, timer);
    durations.add(seconds_since(t));
    ++result.attempted;
    // Same inputs every pass: a pass that answers differently is a failure.
    if (last.attacker && (pass.unseen_top1 != last.unseen_top1 ||
                          pass.seen_top1 != last.seen_top1)) {
      ++result.failed;
      result.check(false, "pipeline: a pass disagreed with the previous one");
    }
    last = std::move(pass);
  }
  return durations;
}

}  // namespace

Result run_pipeline(const Options& options) {
  Result result;
  LayerTimer untimed(false);

  // Set-up: the fixture sites and one discarded warm-up pass.
  Samples setups;
  const std::unique_ptr<Sites> fixture = repeat_setup(kSetups, setups, [&] {
    auto s = std::make_unique<Sites>(
        Sites{make_site(kClasses, kSiteSeed), make_site(kUnseenClasses, kUnseenSiteSeed)});
    (void)run_pass(*s, options.seed, untimed);
    return s;
  });
  const Sites& sites = *fixture;

  PassOutcome last;
  if (!options.trace) {
    const Samples passes = run_passes(sites, options.seed, options.seconds, untimed, last, result);
    const double pass_s = passes.median();
    result.print({"pipeline_s", pass_s, "s", passes.size(), "median pass"});
    result.emit({"op_p50_ms", pass_s * 1e3, "ms", passes.size(), "median pass (= pipeline_s)"});
    result.emit({"top1_acc", last.unseen_top1, "fraction", last.unseen_queries.size(),
                 "unseen-class retarget"});
    result.print({"seen_top1_acc", last.seen_top1, "fraction",
                  static_cast<std::size_t>(kClasses * (kLoadsPerClass - kRefLoadsPerClass)),
                  "held-out loads of the trained classes"});
  } else {
    // Traced: half the window untraced, half with the layer timers and obs
    // spans on; the difference of the two median passes is the overhead.
    const double half = options.seconds / 2;
    const Samples plain = run_passes(sites, options.seed, half, untimed, last, result);
    LayerTimer timer(true);
    wf::obs::set_enabled(true);
    const Samples traced = run_passes(sites, options.seed, half, timer, last, result);
    wf::obs::set_enabled(false);
    result.emit({"obs.trace_overhead", traced.median() / plain.median() - 1.0, "fraction",
                 traced.size() + plain.size(), "median traced pass / untraced pass - 1"});
    add_model_layers(*last.attacker, last.unseen_queries, timer, result);
  }
  result.emit({"setup_s", setups.median(), "s", setups.size(), "median set-up (incl. warm-up)"});
  result.check(last.unseen_top1 >= 0.1,
               "pipeline: unseen-class top-1 below the 0.1 floor (chance is 0.001)");
  result.check(last.seen_top1 >= 0.2, "pipeline: seen-class top-1 below the 0.2 floor");
  return result;
}

}  // namespace perfbench
