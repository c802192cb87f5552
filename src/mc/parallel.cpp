#include "mc/parallel.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "mc/checkpoint.h"
#include "util/hash.h"
#include "util/resource.h"

namespace nicemc::mc {

using detail::kPollStride;
using detail::SearchClock;
using detail::seconds_since;

namespace {

/// Shared state of one parallel exhaustive run. Each worker expands from a
/// private LIFO stack and takes `mu` only to refill an empty stack from the
/// deque, to hand the bottom half of its stack to a parked peer, and once
/// per kPollStride expansions when the durability layer is on. `active`
/// counts workers outside claim() — the only ones that can hold a private
/// stack or be expanding a node — so the search is finished exactly when
/// the deque is empty and active == 0.
struct SharedSearch {
  SharedSearch(const CheckerOptions& options, SearchClock::time_point start)
      : options(options), start(start) {}

  const CheckerOptions& options;
  const SearchClock::time_point start;

  std::mutex mu;
  std::condition_variable cv;
  /// Handoff deque, popped LIFO (guarded by `mu`). Holds every pending
  /// node whenever the workers are quiesced, so it is the node list of
  /// every checkpoint.
  std::deque<SearchNode> work;
  std::size_t active{0};  // guarded by `mu`; every worker starts active
  /// Halt flag. Written under `mu`; read without it before every pop.
  std::atomic<bool> stop{false};
  /// Quiesce barrier for checkpointing: while set, every worker moves its
  /// private stack onto the deque and parks; the worker that observes
  /// active == 0 writes the snapshot (everything mutable is then at rest),
  /// clears the flag, and releases the others. Written under `mu`.
  std::atomic<bool> snapshot_pending{false};
  /// Workers parked waiting for work; read without `mu` to decide whether
  /// a handoff is worth taking the lock.
  std::atomic<unsigned> waiting{0};
  /// Pending nodes: the deque, every private stack, and the nodes being
  /// expanded (a node leaves the count when its children join it). Feeds
  /// the frontier gauge and the watchdog's resident-byte estimate.
  std::atomic<std::uint64_t> pending{0};

  /// Durability context (may be null) and the discovery counters a
  /// resumed checkpoint carried over (a snapshot adds the cache's own).
  Durability* dur{nullptr};
  DiscoveryStats seed_discovery;

  std::atomic<std::uint64_t> transitions{0};
  std::atomic<std::uint64_t> unique_states{0};
  std::atomic<std::uint64_t> revisits{0};
  std::atomic<std::uint64_t> quiescent_states{0};
  std::atomic<bool> truncated{false};
  std::atomic<LimitReason> limit{LimitReason::kNone};

  std::mutex violations_mu;
  std::vector<ViolationRecord> violations;

  bool found_violation() {
    std::lock_guard<std::mutex> lock(violations_mu);
    return !violations.empty();
  }

  /// Append violations; returns true when the search should stop.
  bool record(std::vector<ViolationRecord>& vs) {
    std::lock_guard<std::mutex> lock(violations_mu);
    for (ViolationRecord& v : vs) violations.push_back(std::move(v));
    return options.stop_at_first_violation;
  }

  LimitReason limit_hit() const {
    if (transitions.load(std::memory_order_relaxed) >=
        options.max_transitions) {
      return LimitReason::kTransitions;
    }
    if (unique_states.load(std::memory_order_relaxed) >=
        options.max_unique_states) {
      return LimitReason::kUniqueStates;
    }
    if (options.time_limit_seconds > 0 &&
        seconds_since(start) >= options.time_limit_seconds) {
      return LimitReason::kTime;
    }
    return LimitReason::kNone;
  }

  /// Stop the search and wake every parked worker. Caller holds `mu`.
  /// kNone is a violation stop; any other reason truncates the run.
  void halt_locked(LimitReason reason) {
    stop.store(true, std::memory_order_relaxed);
    if (reason != LimitReason::kNone) {
      truncated.store(true);
      limit.store(reason);
    }
    cv.notify_all();
  }

  void halt(LimitReason reason) {
    std::lock_guard<std::mutex> lock(mu);
    halt_locked(reason);
  }
};

/// Write a checkpoint of the shared search. Caller holds `mu` and the
/// workers are quiesced (active == 0, every private stack moved onto the
/// deque), so counters, deque, violations and the discovery counters are
/// all at rest. The deque is snapshotted front-to-back: re-push_back in
/// that order reproduces it exactly, LIFO pops and all.
void parallel_snapshot(const SearchCore& core, SharedSearch& shared) {
  Durability::Snapshot snap;
  snap.transitions = shared.transitions.load(std::memory_order_relaxed);
  snap.unique_states = shared.unique_states.load(std::memory_order_relaxed);
  snap.revisits = shared.revisits.load(std::memory_order_relaxed);
  snap.quiescent_states =
      shared.quiescent_states.load(std::memory_order_relaxed);
  snap.violations = &shared.violations;
  snap.discovery = shared.seed_discovery;
  add_discovery_stats(snap.discovery, core.discovery().stats());
  snap.frontier_rng = 0;
  snap.for_each_node =
      [&shared](const std::function<void(const SearchNode&)>& fn) {
        for (const SearchNode& n : shared.work) fn(n);
      };
  shared.dur->save(core, snap);
}

/// Refill a worker's private stack with one node from the deque, parking
/// until one is available. The worker first moves whatever its stack
/// still holds (a barrier or a halt interrupted it) onto the deque, so a
/// quiesced search has every pending node there. Writes the snapshot
/// when this worker completes a pending barrier. Returns false when the
/// worker should exit: the search halted or is exhausted.
bool claim(const SearchCore& core, SharedSearch& shared,
           std::vector<SearchNode>& stack) {
  util::WorkerTelemetry* const wt = util::Telemetry::current();
  std::unique_lock<std::mutex> lock(shared.mu);
  for (SearchNode& n : stack) shared.work.push_back(std::move(n));
  stack.clear();
  // Peers may be waiting on a barrier or on termination.
  if (--shared.active == 0) shared.cv.notify_all();
  const auto runnable = [&shared] {
    return shared.stop.load(std::memory_order_relaxed) ||
           shared.active == 0 ||
           (!shared.work.empty() &&
            !shared.snapshot_pending.load(std::memory_order_relaxed));
  };
  for (;;) {
    if (!runnable()) {
      shared.waiting.fetch_add(1, std::memory_order_relaxed);
      if (wt != nullptr) {
        // Instrumented wait: re-enter the idle scope every 200ms so a
        // long park is attributed as it happens — the reporter's
        // utilization gauge would otherwise not see the wait until the
        // worker wakes.
        for (;;) {
          const util::PhaseScope idle(util::Phase::kIdle);
          if (shared.cv.wait_for(lock, std::chrono::milliseconds(200),
                                 runnable)) {
            break;
          }
        }
      } else {
        shared.cv.wait(lock, runnable);
      }
      shared.waiting.fetch_sub(1, std::memory_order_relaxed);
    }
    if (shared.stop.load(std::memory_order_relaxed)) return false;
    if (shared.snapshot_pending.load(std::memory_order_relaxed)) {
      if (shared.active > 0) continue;  // wait for peers to quiesce
      parallel_snapshot(core, shared);
      shared.snapshot_pending.store(false, std::memory_order_relaxed);
      shared.cv.notify_all();
    }
    if (shared.work.empty()) return false;  // active == 0: space exhausted
    stack.push_back(std::move(shared.work.back()));
    shared.work.pop_back();
    ++shared.active;
    return true;
  }
}

/// Hand the bottom (oldest) half of `stack` to the deque, provided the
/// deque is empty: a peer is parked and nothing else can feed it. The
/// oldest node lands at the deque's back, so the next claim takes it —
/// nearest the root, it usually carries the most work.
void share(SharedSearch& shared, std::vector<SearchNode>& stack) {
  std::lock_guard<std::mutex> lock(shared.mu);
  if (!shared.work.empty()) return;
  const std::size_t n = stack.size() / 2;
  for (std::size_t i = n; i-- > 0;) {
    shared.work.push_back(std::move(stack[i]));
  }
  stack.erase(stack.begin(), stack.begin() + static_cast<std::ptrdiff_t>(n));
  shared.cv.notify_all();
}

/// The durability layer's between-expansions hook: the interrupt/watchdog
/// poll, then the checkpoint-due check that raises the snapshot barrier.
/// Returns false when the worker must stop expanding (halted or barrier).
bool poll_durability(const SearchCore& core, SharedSearch& shared) {
  std::lock_guard<std::mutex> lock(shared.mu);
  const LimitReason r =
      shared.dur->poll(core, shared.pending.load(std::memory_order_relaxed));
  if (r != LimitReason::kNone) {
    shared.halt_locked(r);
    return false;
  }
  if (shared.dur->due()) {
    shared.snapshot_pending.store(true, std::memory_order_relaxed);
  }
  return !shared.snapshot_pending.load(std::memory_order_relaxed);
}

void search_worker(const SearchCore& core, SharedSearch& shared,
                   std::size_t worker) {
  const util::Telemetry::Binding bind(core.telemetry(), worker);
  util::WorkerTelemetry* const wt = util::Telemetry::current();
  std::vector<SearchNode> stack;  // private DFS stack, popped at the back
  std::uint64_t since_poll = 0;
  std::uint64_t polls = 0;
  for (;;) {
    // Before every pop: halt (limit, violation, interrupt, memory) and the
    // checkpoint barrier send the worker through claim(), which moves the
    // stack onto the deque.
    if (stack.empty() || shared.stop.load(std::memory_order_relaxed) ||
        shared.snapshot_pending.load(std::memory_order_relaxed)) {
      if (!claim(core, shared, stack)) return;
      continue;
    }
    if (const LimitReason lr = shared.limit_hit();
        lr != LimitReason::kNone) {
      shared.halt(lr);
      continue;
    }
    if ((shared.dur != nullptr || wt != nullptr) &&
        ++since_poll >= kPollStride) {
      since_poll = 0;
      ++polls;
      if (shared.dur != nullptr && !poll_durability(core, shared)) continue;
      if (wt != nullptr) {
        const std::uint64_t pending =
            shared.pending.load(std::memory_order_relaxed);
        core.telemetry()->frontier.store(pending, std::memory_order_relaxed);
        // The expensive gauges (engine bytes, memo stats) every ~1k
        // expansions; they take shard locks, so not every poll.
        if (polls % 32 == 0) core.publish_gauges(pending);
      }
    }

    SearchNode node = std::move(stack.back());
    stack.pop_back();
    if (wt != nullptr) {
      wt->record_expand(static_cast<std::uint32_t>(node.transition.kind),
                        node.transition.a, node.transition.aux);
    }
    SearchCore::Expansion e = core.expand(node);
    shared.transitions.fetch_add(1, std::memory_order_relaxed);
    if (wt != nullptr) wt->add_transitions();

    bool want_stop = false;
    if (e.transition_violated) {
      want_stop = shared.record(e.violations);
    } else if (!e.new_state) {
      // Under partial-order reduction a revisit can still carry children
      // (re-expansion of transitions every earlier arrival slept); they
      // are pushed below like any other successors.
      shared.revisits.fetch_add(1, std::memory_order_relaxed);
      if (wt != nullptr) wt->add_revisits();
    } else {
      shared.unique_states.fetch_add(1, std::memory_order_relaxed);
      if (wt != nullptr) wt->add_unique();
      if (e.quiescent) {
        shared.quiescent_states.fetch_add(1, std::memory_order_relaxed);
        if (wt != nullptr) wt->add_quiescent();
        if (!e.violations.empty()) want_stop = shared.record(e.violations);
      }
    }
    if (want_stop) shared.halt(LimitReason::kNone);

    // The expanded node leaves the pending count as its children join.
    if (e.children.empty()) {
      shared.pending.fetch_sub(1, std::memory_order_relaxed);
    } else {
      shared.pending.fetch_add(e.children.size() - 1,
                               std::memory_order_relaxed);
    }
    for (SearchNode& child : e.children) stack.push_back(std::move(child));
    if (stack.size() >= 2 &&
        shared.waiting.load(std::memory_order_relaxed) > 0) {
      share(shared, stack);
    }
  }
}

}  // namespace

CheckerResult run_parallel(const SearchCore& core, unsigned threads,
                           Durability* dur) {
  const auto start = SearchClock::now();
  if (threads < 1) threads = 1;
  const CheckerOptions& options = core.options();

  CheckerResult result;
  std::vector<SearchNode> roots;
  if (dur != nullptr && dur->resumed()) {
    // Stores were reloaded by Durability::resume; carry the counters and
    // re-seed the deque with the rebuilt pending nodes.
    dur->seed(result);
    roots = dur->take_nodes();
  } else {
    roots = core.init(result);
  }

  SharedSearch shared(options, start);
  shared.transitions.store(result.transitions);
  shared.unique_states.store(result.unique_states);
  shared.revisits.store(result.revisits);
  shared.quiescent_states.store(result.quiescent_states);
  shared.violations = std::move(result.violations);
  result.violations.clear();
  for (SearchNode& root : roots) shared.work.push_back(std::move(root));
  shared.pending.store(shared.work.size());

  shared.dur = dur;
  shared.seed_discovery = result.discovery;

  if (core.telemetry() != nullptr) {
    // Seed the reporter's cumulative totals with the resumed/init
    // counters; the per-worker counters only add this process's work.
    core.telemetry()->set_base(result.transitions, result.unique_states,
                               result.revisits, result.quiescent_states);
  }

  const bool stop_immediately =
      options.stop_at_first_violation && shared.found_violation();
  if (!stop_immediately && !shared.work.empty()) {
    shared.active = threads;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back(search_worker, std::cref(core), std::ref(shared),
                           static_cast<std::size_t>(w));
    }
    for (std::thread& t : workers) t.join();
  }

  result.transitions = shared.transitions.load();
  result.unique_states = shared.unique_states.load();
  result.revisits = shared.revisits.load();
  result.quiescent_states = shared.quiescent_states.load();
  result.violations = std::move(shared.violations);
  result.hit_limit = shared.limit.load();
  result.exhausted = shared.work.empty() && !shared.truncated.load() &&
                     !(options.stop_at_first_violation &&
                       result.found_violation());
  add_discovery_stats(result.discovery, core.discovery().stats());
  core.publish_gauges(shared.work.size());
  if (dur != nullptr) {
    // Final checkpoint with the workers joined: whatever halted the run
    // (limit, interrupt, memory, exhaustion) leaves a resumable snapshot.
    Durability::Snapshot snap;
    snap.transitions = result.transitions;
    snap.unique_states = result.unique_states;
    snap.revisits = result.revisits;
    snap.quiescent_states = result.quiescent_states;
    snap.violations = &result.violations;
    snap.discovery = result.discovery;
    snap.frontier_rng = 0;
    snap.for_each_node =
        [&shared](const std::function<void(const SearchNode&)>& fn) {
          for (const SearchNode& n : shared.work) fn(n);
        };
    dur->save(core, snap);
  }
  core.finish_stats(result, dur);
  result.seconds = seconds_since(start);
  return result;
}

namespace {

/// Shared state of a random-walk portfolio run.
struct SharedWalks {
  explicit SharedWalks(SearchClock::time_point start) : start(start) {}

  const SearchClock::time_point start;
  std::atomic<std::uint64_t> transitions{0};
  std::atomic<std::uint64_t> unique_states{0};
  std::atomic<std::uint64_t> revisits{0};
  std::atomic<std::uint64_t> quiescent_states{0};
  std::atomic<bool> stop{false};
  std::atomic<LimitReason> limit{LimitReason::kNone};

  std::mutex violations_mu;
  std::vector<ViolationRecord> violations;
};

void walk_worker(const SearchCore& core, SharedWalks& shared,
                 std::uint64_t rng_seed, unsigned worker, unsigned stride,
                 int walks, int max_steps) {
  const CheckerOptions& options = core.options();
  const Executor& executor = core.executor();
  util::SplitMix64 rng(rng_seed);
  const util::Telemetry::Binding bind(core.telemetry(), worker);
  util::WorkerTelemetry* const wt = util::Telemetry::current();
  std::uint64_t steps_since_publish = 0;

  auto record = [&](std::vector<ViolationRecord> vs) {
    std::lock_guard<std::mutex> lock(shared.violations_mu);
    for (ViolationRecord& v : vs) shared.violations.push_back(std::move(v));
  };

  for (int w = static_cast<int>(worker); w < walks;
       w += static_cast<int>(stride)) {
    if (shared.stop.load(std::memory_order_relaxed)) return;
    SystemState state = executor.make_initial();
    std::shared_ptr<const PathNode> path;
    for (int step = 0; step < max_steps; ++step) {
      if (options.time_limit_seconds > 0 &&
          seconds_since(shared.start) >= options.time_limit_seconds) {
        shared.limit.store(LimitReason::kTime);
        shared.stop.store(true);
        return;
      }
      auto ts = apply_strategy(options.strategy, core.config(), state,
                               executor.enabled(state, core.discovery()));
      if (ts.empty()) {
        shared.quiescent_states.fetch_add(1, std::memory_order_relaxed);
        if (wt != nullptr) wt->add_quiescent();
        std::vector<Violation> vs;
        executor.at_quiescence(state, vs);
        if (!vs.empty()) {
          std::vector<ViolationRecord> recs;
          const auto trace = trace_of(path);
          for (Violation& v : vs) {
            recs.push_back(ViolationRecord{std::move(v), trace});
          }
          record(std::move(recs));
          if (options.stop_at_first_violation) shared.stop.store(true);
        }
        break;
      }
      const Transition t =
          ts[static_cast<std::size_t>(rng.next_below(ts.size()))];
      if (wt != nullptr) {
        wt->record_expand(static_cast<std::uint32_t>(t.kind), t.a, t.aux);
      }
      std::vector<Violation> violations;
      executor.apply(state, t, violations);
      shared.transitions.fetch_add(1, std::memory_order_relaxed);
      if (wt != nullptr) {
        wt->add_transitions();
        // Walks have no frontier; publish just the byte/memo gauges on a
        // coarse per-worker cadence.
        if (++steps_since_publish >= 1024) {
          steps_since_publish = 0;
          core.publish_gauges(0);
        }
      }
      path = std::make_shared<const PathNode>(PathNode{path, t});
      if (core.remember(state)) {
        shared.unique_states.fetch_add(1, std::memory_order_relaxed);
        if (wt != nullptr) wt->add_unique();
      } else {
        shared.revisits.fetch_add(1, std::memory_order_relaxed);
        if (wt != nullptr) wt->add_revisits();
      }
      if (!violations.empty()) {
        std::vector<ViolationRecord> recs;
        const auto trace = trace_of(path);
        for (Violation& v : violations) {
          recs.push_back(ViolationRecord{std::move(v), trace});
        }
        record(std::move(recs));
        if (options.stop_at_first_violation) shared.stop.store(true);
        break;
      }
    }
  }
}

}  // namespace

CheckerResult run_random_walks(const SearchCore& core, unsigned threads,
                               std::uint64_t seed, int walks, int max_steps) {
  const auto start = SearchClock::now();

  SharedWalks shared(start);
  if (core.telemetry() != nullptr) core.telemetry()->set_base(0, 0, 0, 0);
  if (threads <= 1) {
    walk_worker(core, shared, seed, 0, 1, walks, max_steps);
  } else {
    util::SplitMix64 seeder(seed);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back(walk_worker, std::cref(core), std::ref(shared),
                           seeder.next(), w, threads, walks, max_steps);
    }
    for (std::thread& t : workers) t.join();
  }

  CheckerResult result;
  result.transitions = shared.transitions.load();
  result.unique_states = shared.unique_states.load();
  result.revisits = shared.revisits.load();
  result.quiescent_states = shared.quiescent_states.load();
  result.violations = std::move(shared.violations);
  result.hit_limit = shared.limit.load();
  result.discovery = core.discovery().stats();
  core.publish_gauges(0);
  core.finish_stats(result, nullptr);
  result.seconds = seconds_since(start);
  return result;
}

}  // namespace nicemc::mc
