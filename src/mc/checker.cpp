#include "mc/checker.h"

#include <memory>
#include <string>

#include "mc/checkpoint.h"
#include "util/hash.h"
#include "util/resource.h"

namespace nicemc::mc {

using detail::SearchClock;
using detail::seconds_since;

std::unique_ptr<util::ProgressReporter> Checker::make_reporter() const {
  if (telem_ == nullptr ||
      (options_.progress_path.empty() && !options_.progress_tty)) {
    return nullptr;
  }
  util::ProgressReporter::Options po;
  po.path = options_.progress_path;
  po.interval_seconds = options_.progress_interval_seconds;
  po.tty = options_.progress_tty;
  // A resumed run appends and continues the stream's sequence numbers,
  // so kill-and-resume yields one continuous monotone NDJSON stream.
  po.append = options_.progress_append || options_.resume;
  auto reporter = std::make_unique<util::ProgressReporter>(*telem_, po);
  reporter->start();
  return reporter;
}

void Checker::finish_reporter(util::ProgressReporter* reporter,
                              CheckerResult& result) {
  if (reporter == nullptr) return;
  reporter->stop(limit_reason_name(result.hit_limit));
  result.telemetry.progress_snapshots = reporter->snapshots_emitted();
}

CheckerResult Checker::run() {
  std::unique_ptr<Durability> durability;
  if (!options_.checkpoint_path.empty() ||
      options_.memory_budget_bytes > 0 || options_.handle_signals) {
    durability = std::make_unique<Durability>(
        options_, search_config_fingerprint(cfg_, options_, executor_));
    if (options_.resume) {
      // Resume-or-fresh: a missing/corrupt/mismatching checkpoint is not
      // fatal — the search simply starts over (and re-creates the slots).
      // The reason lands in CheckerResult::durability.resume_error.
      (void)durability->resume(core_);
    }
  }
  std::unique_ptr<util::ProgressReporter> reporter = make_reporter();
  CheckerResult result;
  if (options_.threads > 1) {
    result = run_parallel(core_, options_.threads, durability.get());
  } else {
    auto frontier = make_frontier(options_.frontier, options_.frontier_seed);
    result = core_.run_sequential(*frontier, durability.get());
  }
  finish_reporter(reporter.get(), result);
  return result;
}

CheckerResult Checker::random_walk(std::uint64_t seed, int walks,
                                   int max_steps) {
  std::unique_ptr<util::ProgressReporter> reporter = make_reporter();
  if (options_.threads > 1) {
    CheckerResult result = run_random_walk_portfolio(
        core_, options_.threads, seed, walks, max_steps);
    finish_reporter(reporter.get(), result);
    return result;
  }

  const auto start = SearchClock::now();
  CheckerResult result;
  util::SplitMix64 rng(seed);
  const util::Telemetry::Binding bind(telem_.get(), 0);
  util::WorkerTelemetry* const wt = util::Telemetry::current();
  if (telem_ != nullptr) telem_->set_base(0, 0, 0, 0);
  std::uint64_t steps_since_publish = 0;

  for (int w = 0; w < walks; ++w) {
    if (result.hit_limit == LimitReason::kTime) break;
    SystemState state = executor_.make_initial();
    std::shared_ptr<const PathNode> path;
    for (int step = 0; step < max_steps; ++step) {
      if (options_.time_limit_seconds > 0 &&
          seconds_since(start) >= options_.time_limit_seconds) {
        result.hit_limit = LimitReason::kTime;
        break;
      }
      auto ts = apply_strategy(options_.strategy, cfg_, state,
                               executor_.enabled(state, discovery_));
      if (ts.empty()) {
        ++result.quiescent_states;
        if (wt != nullptr) wt->add_quiescent();
        std::vector<Violation> vs;
        executor_.at_quiescence(state, vs);
        for (Violation& v : vs) {
          result.violations.push_back(
              ViolationRecord{std::move(v), trace_of(path)});
        }
        break;
      }
      const Transition t = ts[static_cast<std::size_t>(
          rng.next_below(ts.size()))];
      if (wt != nullptr) {
        wt->record_expand(static_cast<std::uint32_t>(t.kind), t.a, t.aux);
      }
      std::vector<Violation> violations;
      executor_.apply(state, t, violations);
      ++result.transitions;
      if (wt != nullptr) {
        wt->add_transitions();
        if (++steps_since_publish >= 1024) {
          steps_since_publish = 0;
          core_.publish_gauges(0);
        }
      }
      path = std::make_shared<const PathNode>(PathNode{path, t});
      if (core_.remember(state)) {
        ++result.unique_states;
        if (wt != nullptr) wt->add_unique();
      } else {
        ++result.revisits;
        if (wt != nullptr) wt->add_revisits();
      }
      if (!violations.empty()) {
        for (Violation& v : violations) {
          result.violations.push_back(
              ViolationRecord{std::move(v), trace_of(path)});
        }
        break;
      }
    }
    if (options_.stop_at_first_violation && result.found_violation()) break;
  }

  result.seconds = seconds_since(start);
  result.discovery = discovery_.stats();
  core_.publish_gauges(0);
  core_.finish_stats(result, nullptr);
  finish_reporter(reporter.get(), result);
  return result;
}

}  // namespace nicemc::mc
