// serve_open / serve_fanout: open-loop Poisson arrivals of single-trace
// QRYB requests against in-process daemons on loopback. serve_open runs one
// Server + LocalHandler; serve_fanout puts a CoordinatorHandler in front of
// two LocalHandler slice backends. The model is the 300-class pipeline
// model after an io save -> load round trip.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "common.hpp"
#include "data/splits.hpp"
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr double kNamedRate = 1000.0;  // q/s at which lat_p50_ms / lat_p99_ms are read
constexpr double kLadderRatio = 1.4;
constexpr int kLadderLow = -2;  // ladder: kNamedRate * kLadderRatio^k, k in [low, high]
constexpr int kLadderHigh = 6;
constexpr double kLatencyLimitMs = 5.0;  // p99 limit behind max_qps
constexpr double kBacklogGrowthMs = 1.0;
constexpr std::size_t kMinRateSamples = 1100;  // p99 with >= 10 samples beyond it
constexpr std::size_t kWarmupQueries = 300;

// Times Handler::rank / Handler::scan from outside the library. Installed
// only in traced runs; records only while `recording` is set, so the
// untraced half of a traced run pays one relaxed load per call.
class TimedHandler final : public wf::serve::Handler {
 public:
  explicit TimedHandler(std::shared_ptr<wf::serve::Handler> inner) : inner_(std::move(inner)) {}

  wf::serve::ServerInfo info() const override { return inner_->info(); }
  wf::serve::RankReply rank(const wf::nn::Matrix& queries) override {
    if (recording_.load(std::memory_order_relaxed)) rank_rows_ += queries.rows();
    return timed<wf::serve::RankReply>(rank_ms_, [&] { return inner_->rank(queries); });
  }
  wf::core::SliceScan scan(const wf::nn::Matrix& queries) override {
    return timed<wf::core::SliceScan>(scan_ms_, [&] { return inner_->scan(queries); });
  }

  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  Samples rank_ms() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return rank_ms_;
  }
  Samples scan_ms() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return scan_ms_;
  }
  // Query rows per recorded rank call: the coalesced batch the model saw.
  double rows_per_rank() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (rank_ms_.empty()) return 0.0;
    return static_cast<double>(rank_rows_) / static_cast<double>(rank_ms_.size());
  }

 private:
  template <typename Out, typename Fn>
  Out timed(Samples& into, Fn&& fn) {
    if (!recording_.load(std::memory_order_relaxed)) return fn();
    const Clock::time_point start = Clock::now();
    Out out = fn();
    const double ms = seconds_since(start) * 1e3;
    const std::lock_guard<std::mutex> lock(mutex_);
    into.add(ms);
    return out;
  }

  std::shared_ptr<wf::serve::Handler> inner_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mutex_;
  Samples rank_ms_;
  Samples scan_ms_;
  std::atomic<std::size_t> rank_rows_{0};  // only the single server worker adds
};

// One serving set-up: the loaded model, its held-out queries with their
// in-process answers, and the running daemons (backends first, front last).
struct Stack {
  std::unique_ptr<wf::core::Attacker> model;
  wf::data::Dataset queries;
  std::vector<wf::nn::Matrix> query_rows;
  std::vector<std::vector<wf::core::RankedLabel>> expected;
  // Traced runs only: the backends' decorators in slice order, then the front's.
  std::vector<std::shared_ptr<TimedHandler>> timed;
  std::vector<std::unique_ptr<wf::serve::Server>> servers;
  std::vector<std::unique_ptr<wf::serve::Client>> clients;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double model_bytes = 0.0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    clients.clear();
    for (auto it = servers.rbegin(); it != servers.rend(); ++it) (*it)->stop();
  }
};

std::shared_ptr<wf::serve::Handler> maybe_timed(std::shared_ptr<wf::serve::Handler> h,
                                                bool trace, Stack& stack) {
  if (!trace) return h;
  auto timed = std::make_shared<TimedHandler>(std::move(h));
  stack.timed.push_back(timed);
  return timed;
}

std::unique_ptr<Stack> build_stack(const Options& options, bool fanout, LayerTimer& timer) {
  auto owned = std::make_unique<Stack>();
  Stack& stack = *owned;
  const wf::netsim::Website site = make_site(kClasses, kSiteSeed);
  const wf::data::Dataset crawled =
      crawl(site, {}, kLoadsPerClass, derive_seed(options.seed, "crawl"), timer);
  wf::data::SampleSplit split =
      wf::data::split_samples(crawled, kRefLoadsPerClass, derive_seed(options.seed, "split"));
  const std::unique_ptr<wf::core::AdaptiveFingerprinter> trained =
      train_attacker(split.first, timer);

  const std::string path =
      options.scratch + "/serve-model-" + std::to_string(getpid()) + ".wfio";
  Clock::time_point t = Clock::now();
  wf::io::save_attacker(path, *trained);
  stack.save_ms = seconds_since(t) * 1e3;
  stack.model_bytes = static_cast<double>(std::filesystem::file_size(path));
  t = Clock::now();
  stack.model = wf::io::load_attacker(path);
  stack.load_ms = seconds_since(t) * 1e3;
  std::filesystem::remove(path);

  stack.queries = std::move(split.second);
  stack.expected = stack.model->fingerprint_batch(stack.queries);
  for (std::size_t i = 0; i < stack.queries.size(); ++i) {
    wf::nn::Matrix row(1, stack.queries.feature_dim());
    row.set_row(0, stack.queries[i].features);
    stack.query_rows.push_back(std::move(row));
  }

  wf::serve::ServerConfig config;  // loopback, ephemeral port, default queue/batch caps
  std::vector<wf::serve::BackendAddress> backends;
  if (fanout) {
    constexpr std::size_t kSlices = 2;
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      auto local =
          std::make_shared<wf::serve::LocalHandler>(stack.model->clone(), slice, kSlices);
      stack.servers.push_back(std::make_unique<wf::serve::Server>(
          maybe_timed(std::move(local), options.trace, stack), config));
      stack.servers.back()->start();
      backends.push_back({config.host, stack.servers.back()->port()});
    }
  }
  std::shared_ptr<wf::serve::Handler> front;
  if (fanout)
    front = std::make_shared<wf::serve::CoordinatorHandler>(backends, 1000);
  else
    front = std::make_shared<wf::serve::LocalHandler>(stack.model->clone());
  front = maybe_timed(std::move(front), options.trace, stack);
  stack.servers.push_back(std::make_unique<wf::serve::Server>(front, config));
  stack.servers.back()->start();

  wf::serve::ClientConfig client_config;
  client_config.connect_retry_ms = 1000;
  client_config.timeout_ms = 10000;
  const std::size_t n_clients = usable_cpus();
  for (std::size_t c = 0; c < n_clients; ++c)
    stack.clients.push_back(std::make_unique<wf::serve::Client>(
        config.host, stack.servers.back()->port(), client_config));

  // Warm-up: a closed-loop pass over the first queries, answers checked.
  for (std::size_t i = 0; i < kWarmupQueries; ++i) {
    const std::size_t q = i % stack.queries.size();
    const wf::serve::Rankings got = stack.clients[i % n_clients]->query(stack.query_rows[q]);
    if (got.size() != 1 || !same_ranking(got[0], stack.expected[q]))
      throw std::runtime_error("serve: warm-up answer differs from fingerprint_batch");
  }
  return owned;
}

struct RateOutcome {
  double rate = 0.0;
  double window_s = 0.0;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t refused = 0;
  std::size_t mismatched = 0;
  std::size_t top1_hits = 0;
  Samples latency_ms;     // due -> reply, every sent request (a miss is +inf)
  Samples ok_latency_ms;  // due -> reply, answered requests only
  Samples late_ms;        // due -> actual send
  double late_growth_ms = 0.0;

  std::size_t errors() const { return failed + refused + mismatched; }
  bool backlog_growing() const { return late_growth_ms > kBacklogGrowthMs; }
  double p99() const { return latency_ms.quantile(0.99); }
  bool meets_limit() const {
    return errors() == 0 && p99() <= kLatencyLimitMs && !backlog_growing();
  }
};

// Sleeps until `due`, finishing with a short yield loop so sends start on
// time without burning a core per client thread.
void wait_until(Clock::time_point due) {
  const auto slack = std::chrono::microseconds(200);
  if (Clock::now() < due - slack) std::this_thread::sleep_until(due - slack);
  while (Clock::now() < due) std::this_thread::yield();
}

// Offers `rate` q/s for `window_s` seconds: a Poisson schedule fixed by
// `seed`, drained by one thread per client connection. Each request is timed
// from when it was due, so a stall also charges the requests queued behind it.
RateOutcome run_rate(Stack& stack, double rate, double window_s, std::uint64_t seed) {
  RateOutcome out;
  out.rate = rate;
  out.window_s = window_s;
  wf::util::Rng rng(seed);
  std::vector<double> due_s;
  std::vector<std::size_t> which;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= window_s) break;
    due_s.push_back(t);
    which.push_back(rng.index(stack.queries.size()));
  }
  const std::size_t n = due_s.size();
  std::vector<double> latency(n, 0.0), late(n, 0.0);
  std::vector<unsigned char> status(n, 0);  // 0 ok, 1 failed, 2 refused, 3 mismatched
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto sender = [&](wf::serve::Client& client) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const Clock::time_point due = start + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(due_s[i]));
      wait_until(due);
      const Clock::time_point sent = Clock::now();
      try {
        const wf::serve::Rankings got = client.query(stack.query_rows[which[i]]);
        if (got.size() != 1 || !same_ranking(got[0], stack.expected[which[i]])) status[i] = 3;
      } catch (const wf::serve::ServeError& e) {
        status[i] = e.klass() == wf::serve::ErrorClass::backpressure ? 2 : 1;
      } catch (const std::exception&) {
        status[i] = 1;
      }
      const Clock::time_point done = Clock::now();
      late[i] = std::chrono::duration<double, std::milli>(sent - due).count();
      latency[i] = std::chrono::duration<double, std::milli>(done - due).count();
    }
  };
  std::vector<std::thread> threads;
  for (auto& client : stack.clients) threads.emplace_back(sender, std::ref(*client));
  for (std::thread& t : threads) t.join();

  Samples first, last;
  for (std::size_t i = 0; i < n; ++i) {
    ++out.sent;
    switch (status[i]) {
      case 0: ++out.ok; break;
      case 1: ++out.failed; break;
      case 2: ++out.refused; break;
      default: ++out.mismatched; break;
    }
    out.latency_ms.add(status[i] == 0 ? latency[i] : HUGE_VAL);
    if (status[i] == 0) {
      out.ok_latency_ms.add(latency[i]);
      if (stack.expected[which[i]].front().label == stack.queries[which[i]].label)
        ++out.top1_hits;
    }
    out.late_ms.add(late[i]);
    if (i < n / 3) first.add(late[i]);
    if (i >= n - n / 3) last.add(late[i]);
  }
  out.late_growth_ms = last.median() - first.median();
  return out;
}

std::string rate_line(const RateOutcome& r) {
  char buf[320];
  const auto [tail, p] = r.ok_latency_ms.tail();
  std::snprintf(buf, sizeof buf,
                "rate %7.0f q/s  window %.2f s  sent %zu ok %zu failed %zu refused %zu "
                "mismatched %zu  p50 %.3f ms  p%g %.3f ms (n=%zu)  late p99 %.3f ms  "
                "late growth %.3f ms  %s",
                r.rate, r.window_s, r.sent, r.ok, r.failed, r.refused, r.mismatched,
                r.ok_latency_ms.median(), p * 100, tail, r.ok_latency_ms.size(),
                r.late_ms.quantile(0.99), r.late_growth_ms,
                r.meets_limit() ? "meets limit" : "misses limit");
  return buf;
}

double snapshot_sum(const wf::obs::Snapshot& s, const std::string& name) {
  const wf::obs::SnapshotEntry* e = s.find(name);
  return e == nullptr ? 0.0 : e->sum;
}
double snapshot_count(const wf::obs::Snapshot& s, const std::string& name) {
  const wf::obs::SnapshotEntry* e = s.find(name);
  return e == nullptr ? 0.0 : static_cast<double>(e->count);
}
// Mean of a histogram over the interval between two snapshots (sum and
// count deltas; the histogram's own quantiles are never used).
double window_mean(const wf::obs::Snapshot& before, const wf::obs::Snapshot& after,
                   const std::string& name) {
  const double n = snapshot_count(after, name) - snapshot_count(before, name);
  return n > 0 ? (snapshot_sum(after, name) - snapshot_sum(before, name)) / n : 0.0;
}

void traced_run(const Options& options, bool fanout, Stack& stack, Result& result,
                const Samples& saves, const Samples& loads) {
  const double window = options.seconds / 2;
  const RateOutcome plain =
      run_rate(stack, kNamedRate, window, derive_seed(options.seed, "schedule-plain"));
  wf::obs::set_enabled(true);
  for (const auto& t : stack.timed) t->set_recording(true);
  wf::serve::Client& probe = *stack.clients.front();
  const wf::obs::Snapshot before = probe.stats();
  const RateOutcome traced =
      run_rate(stack, kNamedRate, window, derive_seed(options.seed, "schedule-traced"));
  const wf::obs::Snapshot after = probe.stats();
  for (const auto& t : stack.timed) t->set_recording(false);
  wf::obs::set_enabled(false);
  result.print({"traced_rate", traced.rate, "q/s", traced.sent, rate_line(traced)});
  result.attempted += plain.sent + traced.sent;
  result.failed += plain.errors() + traced.errors();
  result.check(plain.mismatched + traced.mismatched == 0,
               "serve: a served ranking differs from fingerprint_batch");

  result.emit({"obs.trace_overhead",
               traced.ok_latency_ms.median() / plain.ok_latency_ms.median() - 1.0, "fraction",
               traced.ok + plain.ok, "traced / untraced p50 at the named rate - 1"});
  result.emit({"gen.late_p99_ms", traced.late_ms.quantile(0.99), "ms", traced.late_ms.size(),
               "actual send - due"});
  result.emit({"io.save_ms", saves.median(), "ms", saves.size(), "save_attacker"});
  result.emit({"io.load_ms", loads.median(), "ms", loads.size(), "load_attacker"});
  result.emit({"io.model_bytes", stack.model_bytes, "bytes", 1, "saved model file"});

  const Samples handler = stack.timed.back()->rank_ms();
  const double server_ms = window_mean(before, after, "serve.handle_ms.qryb");
  result.emit({"serve.handler_p50_ms", handler.median(), "ms", handler.size(),
               "front Handler::rank"});
  result.emit({"serve.handler_p99_ms", handler.quantile(0.99), "ms", handler.size(),
               "front Handler::rank"});
  result.emit({"serve.server_ms", server_ms, "ms",
               static_cast<std::size_t>(snapshot_count(after, "serve.handle_ms.qryb") -
                                        snapshot_count(before, "serve.handle_ms.qryb")),
               "STAT serve.handle_ms.qryb, window mean"});
  result.emit({"serve.queue_wait_ms", server_ms - handler.mean(), "ms", handler.size(),
               "server mean - handler mean (queue wait + codec)"});
  // Rows per front rank call: the STAT serve.wave_batch histogram is shared
  // by every in-process server, backends included.
  result.emit({"serve.wave_batch_mean", stack.timed.back()->rows_per_rank(), "requests",
               handler.size(), "query rows per front Handler::rank call"});
  const wf::obs::SnapshotEntry* rej_after = after.find("serve.rejected_total");
  const wf::obs::SnapshotEntry* rej_before = before.find("serve.rejected_total");
  result.emit({"serve.rejected",
               static_cast<double>((rej_after ? rej_after->count : 0) -
                                   (rej_before ? rej_before->count : 0)),
               "count", traced.sent, "serve.rejected_total delta"});
  if (fanout) {
    // Pair the i-th coordinator rank with the i-th scan of each backend:
    // the single front worker issues one scatter per rank, in order.
    const Samples scan0 = stack.timed[0]->scan_ms();
    const Samples scan1 = stack.timed[1]->scan_ms();
    Samples backend, merge;
    for (const double v : scan0.values()) backend.add(v);
    for (const double v : scan1.values()) backend.add(v);
    const bool paired = scan0.size() == handler.size() && scan1.size() == handler.size();
    result.check(paired, "serve_fanout: backend scans do not pair with coordinator ranks");
    for (std::size_t i = 0; paired && i < handler.size(); ++i)
      merge.add(handler.values()[i] - std::max(scan0.values()[i], scan1.values()[i]));
    result.emit({"coord.rank_ms", handler.median(), "ms", handler.size(),
                 "CoordinatorHandler::rank p50"});
    result.emit({"coord.backend_scan_ms", backend.median(), "ms", backend.size(),
                 "backend Handler::scan p50"});
    result.emit({"coord.scatter_ms", window_mean(before, after, "coord.scatter_ms"), "ms",
                 handler.size(), "STAT coord.scatter_ms, window mean"});
    result.emit({"coord.merge_overhead_ms", merge.median(), "ms", merge.size(),
                 "rank - slowest backend scan, p50"});
  }
}

}  // namespace

Result run_serve(const Options& options, bool fanout) {
  Result result;
  Samples setups, saves, loads;
  LayerTimer timer(options.trace);
  const std::unique_ptr<Stack> owned = repeat_setup(kSetups, setups, [&] {
    std::unique_ptr<Stack> s = build_stack(options, fanout, timer);
    saves.add(s->save_ms);
    loads.add(s->load_ms);
    return s;
  });
  Stack& stack = *owned;
  result.emit({"setup_s", setups.median(), "s", setups.size(),
               "median set-up: crawl, train, save/load, start, warm-up"});

  if (options.trace) {
    traced_run(options, fanout, stack, result, saves, loads);
    add_model_layers(*dynamic_cast<const wf::core::AdaptiveFingerprinter*>(stack.model.get()),
                     stack.queries, timer, result);
    return result;
  }

  // The ladder: fixed geometric rates, the named rate holding 45 % of the
  // run; stops after two consecutive rates above it miss the limit.
  std::vector<RateOutcome> ladder;
  int misses = 0;
  for (int k = kLadderLow; k <= kLadderHigh && misses < 2; ++k) {
    const double rate = kNamedRate * std::pow(kLadderRatio, k);
    const double window =
        k == 0 ? 0.45 * options.seconds
               : std::max(static_cast<double>(kMinRateSamples) / rate, 0.05 * options.seconds);
    ladder.push_back(
        run_rate(stack, rate, window, derive_seed(options.seed, "schedule" + std::to_string(k))));
    const RateOutcome& r = ladder.back();
    result.print({"rate", r.rate, "q/s", r.sent, rate_line(r)});
    misses = (k > 0 && !r.meets_limit()) ? misses + 1 : 0;
  }

  std::size_t sent = 0, errors = 0, mismatched = 0, hits = 0, answered = 0;
  double max_qps = 0.0;
  for (const RateOutcome& r : ladder) {
    sent += r.sent;
    errors += r.errors();
    mismatched += r.mismatched;
    hits += r.top1_hits;
    answered += r.ok;
    if (r.meets_limit()) max_qps = r.rate;
  }
  const RateOutcome& named = ladder[-kLadderLow];
  const Samples& lat = named.ok_latency_ms;
  const auto [tail, tail_p] = lat.tail();
  char tail_note[64];
  std::snprintf(tail_note, sizeof tail_note, "p%g at 1000 q/s, from due time", tail_p * 100);
  result.print({"lat_p50_ms", lat.median(), "ms", lat.size(), "at 1000 q/s, from due time"});
  result.print({"lat_p99_ms", tail, "ms", lat.size(), tail_note});
  result.print({"max_qps", max_qps, "q/s", ladder.size(),
                "highest ladder rate with p99 <= 5 ms, no errors, no growing backlog"});
  result.print({"err_frac", static_cast<double>(errors) / static_cast<double>(sent), "fraction",
                sent, "(failed + refused + mismatched) / sent"});
  result.emit({"op_p50_ms", lat.median(), "ms", lat.size(), "= lat_p50_ms"});
  result.emit({"top1_acc", static_cast<double>(hits) / static_cast<double>(answered),
               "fraction", answered, "top-1 of served answers on held-out loads"});
  result.attempted += sent;
  result.failed += errors;
  result.check(mismatched == 0, "serve: a served ranking differs from fingerprint_batch");
  result.check(named.errors() == 0, "serve: requests failed at the named rate");
  return result;
}

}  // namespace perfbench
