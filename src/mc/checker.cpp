#include "mc/checker.h"

#include <memory>
#include <string>

#include "mc/checkpoint.h"

namespace nicemc::mc {

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
  po.append = options_.resume;
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
  CheckerResult result = run_random_walks(core_, options_.threads, seed,
                                          walks, max_steps);
  finish_reporter(reporter.get(), result);
  return result;
}

}  // namespace nicemc::mc
