#include "mc/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "mc/checkpoint.h"
#include "util/hash.h"

namespace nicemc::mc {

using detail::kPollStride;
using detail::SearchClock;
using detail::seconds_since;

namespace {

/// What every driver's workers publish into: the run totals, the
/// violations, and the halt state.
struct SharedTally {
  explicit SharedTally(SearchClock::time_point start) : start(start) {}

  const SearchClock::time_point start;
  std::atomic<std::uint64_t> transitions{0};
  std::atomic<std::uint64_t> unique_states{0};
  std::atomic<std::uint64_t> revisits{0};
  std::atomic<std::uint64_t> quiescent_states{0};
  /// Halt flag, read without a lock before every step.
  std::atomic<bool> stop{false};
  /// Why the run was truncated; kNone for exhaustion or a violation stop.
  std::atomic<LimitReason> limit{LimitReason::kNone};

  std::mutex violations_mu;
  std::vector<ViolationRecord> violations;

  /// Whether a wall-clock limit of `seconds` (0: none) has passed. Workers
  /// ask once per kPollStride steps, which keeps the clock read off the
  /// per-transition path.
  [[nodiscard]] bool time_up(double seconds) const {
    return seconds > 0 && seconds_since(start) >= seconds;
  }

  void record(std::vector<ViolationRecord>& vs) {
    std::lock_guard<std::mutex> lock(violations_mu);
    for (ViolationRecord& v : vs) violations.push_back(std::move(v));
  }

  /// Move the totals into `r`; every worker has returned.
  void move_into(CheckerResult& r) {
    r.transitions = transitions.load();
    r.unique_states = unique_states.load();
    r.revisits = revisits.load();
    r.quiescent_states = quiescent_states.load();
    r.violations = std::move(violations);
    r.hit_limit = limit.load();
  }
};

/// Shared state of one exhaustive run. Each worker expands from a private
/// Frontier and takes `mu` only to refill an empty frontier from the
/// deque, to hand half of its frontier to a parked peer, at a checkpoint
/// barrier, and once per kPollStride expansions when the durability layer
/// is on. `active` counts workers outside claim() — the only ones that can
/// hold pending nodes or be expanding one — so the search is exhausted
/// exactly when the deque is empty and active == 0.
struct SharedSearch : SharedTally {
  SharedSearch(const SearchCore& core, unsigned threads, Durability* dur,
               SearchClock::time_point start)
      : SharedTally(start),
        core(core),
        options(core.options()),
        dur(dur),
        active(threads) {
    // A lone worker runs the configured frontier order; several workers
    // each run DFS, whose oldest nodes are the best ones to hand off.
    const FrontierKind kind =
        threads == 1 ? options.frontier : FrontierKind::kDfs;
    for (unsigned w = 0; w < threads; ++w) {
      frontiers.push_back(make_frontier(kind, options.frontier_seed));
    }
  }

  const SearchCore& core;
  const CheckerOptions& options;
  Durability* const dur;  // may be null

  /// One private container per worker; only its owner touches it, except
  /// at a checkpoint barrier or after the join, when every worker rests.
  std::vector<std::unique_ptr<Frontier>> frontiers;

  std::mutex mu;
  std::condition_variable cv;
  /// Handoff deque, popped LIFO (guarded by `mu`).
  std::deque<SearchNode> work;
  std::size_t active;     // guarded by `mu`; every worker starts active
  std::size_t parked{0};  // active workers at the barrier; guarded by `mu`
  /// Checkpoint barrier: while set, every active worker parks in
  /// barrier() and no idle worker claims; the worker that brings the last
  /// active peer to rest writes the snapshot, clears the flag, and
  /// releases the others. Written under `mu`.
  std::atomic<bool> snapshot_pending{false};
  /// Workers parked waiting for work; read without `mu` to decide whether
  /// a handoff is worth taking the lock.
  std::atomic<unsigned> waiting{0};
  /// Pending nodes: the deque, every private frontier, and the nodes being
  /// expanded (a node leaves the count when its children join it). Feeds
  /// the frontier gauge and the watchdog's resident-byte estimate.
  std::atomic<std::uint64_t> pending{0};

  /// The discovery counters a resumed checkpoint carried over (a snapshot
  /// adds the cache's own).
  DiscoveryStats seed_discovery;

  /// The count caps, checked before every pop; the wall-clock limit is
  /// checked at the kPollStride poll (time_up).
  LimitReason limit_hit() const {
    if (transitions.load(std::memory_order_relaxed) >=
        options.max_transitions) {
      return LimitReason::kTransitions;
    }
    if (unique_states.load(std::memory_order_relaxed) >=
        options.max_unique_states) {
      return LimitReason::kUniqueStates;
    }
    return LimitReason::kNone;
  }

  /// Stop the search and wake every parked worker. Caller holds `mu`.
  /// kNone is a violation stop; any other reason truncates the run.
  void halt_locked(LimitReason reason) {
    stop.store(true, std::memory_order_relaxed);
    if (reason != LimitReason::kNone) limit.store(reason);
    cv.notify_all();
  }

  void halt(LimitReason reason) {
    std::lock_guard<std::mutex> lock(mu);
    halt_locked(reason);
  }

  /// Checkpoint the search. Caller holds `mu` with every worker at rest
  /// (parked at the barrier, idle in claim(), or returned), so counters,
  /// frontiers, deque, violations and the discovery counters are all
  /// still. Nodes are visited deque first, then each worker's frontier in
  /// its for_each order: with one worker, exactly that frontier's
  /// reconstruction order, RNG state included.
  void save() {
    Durability::Snapshot snap;
    snap.transitions = transitions.load(std::memory_order_relaxed);
    snap.unique_states = unique_states.load(std::memory_order_relaxed);
    snap.revisits = revisits.load(std::memory_order_relaxed);
    snap.quiescent_states = quiescent_states.load(std::memory_order_relaxed);
    snap.violations = &violations;
    snap.discovery = seed_discovery;
    add_discovery_stats(snap.discovery, core.discovery().stats());
    snap.frontier_rng = frontiers.front()->rng_state();
    snap.for_each_node =
        [this](const std::function<void(const SearchNode&)>& fn) {
          for (const SearchNode& n : work) fn(n);
          for (const auto& f : frontiers) f->for_each(fn);
        };
    dur->save(core, snap);
  }

  /// Complete a pending barrier once every active worker is parked at it
  /// (idle workers are already at rest in claim()). Caller holds `mu`.
  void finish_barrier_locked() {
    if (!snapshot_pending.load(std::memory_order_relaxed) ||
        parked != active) {
      return;
    }
    save();
    snapshot_pending.store(false, std::memory_order_relaxed);
    cv.notify_all();
  }
};

/// Wait on the shared condition until `ready`; with telemetry on, the
/// wait is attributed to the idle phase as it happens (the scope is
/// re-entered every 200ms — the reporter's utilization gauge would
/// otherwise not see a long park until the worker wakes).
template <typename Ready>
void park(SharedSearch& shared, std::unique_lock<std::mutex>& lock,
          Ready ready) {
  if (util::Telemetry::current() == nullptr) {
    shared.cv.wait(lock, ready);
    return;
  }
  for (;;) {
    const util::PhaseMarks idle(util::Phase::kIdle);
    if (shared.cv.wait_for(lock, std::chrono::milliseconds(200), ready)) {
      return;
    }
  }
}

/// Rest at the checkpoint barrier, keeping the private frontier, until
/// the snapshot is written or the search halts.
void barrier(SharedSearch& shared) {
  std::unique_lock<std::mutex> lock(shared.mu);
  ++shared.parked;
  shared.finish_barrier_locked();
  park(shared, lock, [&shared] {
    return shared.stop.load(std::memory_order_relaxed) ||
           !shared.snapshot_pending.load(std::memory_order_relaxed);
  });
  --shared.parked;
}

/// Refill a worker's empty frontier with one node from the deque, parking
/// until one is available. Returns false when the worker should exit: the
/// search halted or is exhausted.
bool claim(SharedSearch& shared, Frontier& mine) {
  std::unique_lock<std::mutex> lock(shared.mu);
  // Peers may be waiting on a barrier or on termination.
  if (--shared.active == 0) shared.cv.notify_all();
  shared.finish_barrier_locked();
  const auto runnable = [&shared] {
    return shared.stop.load(std::memory_order_relaxed) ||
           shared.active == 0 ||
           (!shared.work.empty() &&
            !shared.snapshot_pending.load(std::memory_order_relaxed));
  };
  if (!runnable()) {
    shared.waiting.fetch_add(1, std::memory_order_relaxed);
    park(shared, lock, runnable);
    shared.waiting.fetch_sub(1, std::memory_order_relaxed);
  }
  if (shared.stop.load(std::memory_order_relaxed)) return false;
  if (shared.work.empty()) return false;  // active == 0: space exhausted
  mine.push(std::move(shared.work.back()));
  shared.work.pop_back();
  ++shared.active;
  return true;
}

/// Hand half of `mine` to the deque, provided the deque is empty: a peer
/// is parked and nothing else can feed it.
void share(SharedSearch& shared, Frontier& mine) {
  std::lock_guard<std::mutex> lock(shared.mu);
  if (!shared.work.empty()) return;
  mine.give_half(shared.work);
  shared.cv.notify_all();
}

/// The durability layer's between-expansions hook: the interrupt/watchdog
/// poll, then the checkpoint-due check that raises the snapshot barrier
/// and rests at it. Returns false when the search halted.
bool poll_durability(SharedSearch& shared) {
  {
    std::lock_guard<std::mutex> lock(shared.mu);
    const LimitReason r = shared.dur->poll(
        shared.core, shared.pending.load(std::memory_order_relaxed));
    if (r != LimitReason::kNone) {
      shared.halt_locked(r);
      return false;
    }
    if (shared.dur->due()) {
      shared.snapshot_pending.store(true, std::memory_order_relaxed);
    }
    if (!shared.snapshot_pending.load(std::memory_order_relaxed)) {
      return true;
    }
  }
  barrier(shared);
  return !shared.stop.load(std::memory_order_relaxed);
}

/// One worker's counts not yet added to the shared totals, which all
/// workers' counters share one cache line for. The worker publishes them
/// in batches, and always before it parks, hands work off or returns, so
/// the totals are exact whenever every worker rests (a checkpoint, the
/// join) and the pending count never drops below the nodes in the deque.
struct WorkerTally {
  explicit WorkerTally(SharedSearch& shared) : shared(shared) {}
  ~WorkerTally() { publish(); }
  WorkerTally(const WorkerTally&) = delete;
  WorkerTally& operator=(const WorkerTally&) = delete;

  void publish() {
    constexpr auto relaxed = std::memory_order_relaxed;
    if (transitions != 0) shared.transitions.fetch_add(transitions, relaxed);
    if (unique_states != 0) {
      shared.unique_states.fetch_add(unique_states, relaxed);
    }
    if (revisits != 0) shared.revisits.fetch_add(revisits, relaxed);
    if (quiescent_states != 0) {
      shared.quiescent_states.fetch_add(quiescent_states, relaxed);
    }
    // Unsigned wrap-around adds a negative delta.
    if (pending != 0) {
      shared.pending.fetch_add(static_cast<std::uint64_t>(pending), relaxed);
    }
    transitions = unique_states = revisits = quiescent_states = 0;
    pending = 0;
  }

  SharedSearch& shared;
  std::uint64_t transitions{0};
  std::uint64_t unique_states{0};
  std::uint64_t revisits{0};
  std::uint64_t quiescent_states{0};
  std::int64_t pending{0};
};

/// One worker's loop: the per-node body of every exhaustive search.
void search_worker(SharedSearch& shared, std::size_t worker) {
  const SearchCore& core = shared.core;
  const util::Telemetry::Binding bind(core.telemetry(), worker);
  util::WorkerTelemetry* const wt = util::Telemetry::current();
  Frontier& mine = *shared.frontiers[worker];
  // Counts are published every kPollStride expansions, except that a
  // count cap is checked against exact totals before every pop.
  const bool capped = shared.options.max_transitions != ~0ULL ||
                      shared.options.max_unique_states != ~0ULL;
  WorkerTally tally(shared);
  std::uint64_t since_poll = 0;
  std::uint64_t polls = 0;
  for (;;) {
    // Before every pop: a halt (limit, violation, interrupt, memory) ends
    // the worker with its frontier intact for the final checkpoint; a
    // peer's checkpoint barrier parks it until the snapshot is written.
    if (shared.stop.load(std::memory_order_relaxed)) return;
    if (shared.snapshot_pending.load(std::memory_order_relaxed)) {
      tally.publish();
      barrier(shared);
      continue;
    }
    if (mine.empty()) {
      tally.publish();
      if (!claim(shared, mine)) return;
      continue;
    }
    if (const LimitReason lr = shared.limit_hit();
        lr != LimitReason::kNone) {
      shared.halt(lr);
      return;
    }
    if (++since_poll >= kPollStride) {
      since_poll = 0;
      ++polls;
      tally.publish();
      if (shared.time_up(shared.options.time_limit_seconds)) {
        shared.halt(LimitReason::kTime);
        return;
      }
      if (shared.dur != nullptr && !poll_durability(shared)) return;
      if (wt != nullptr) {
        const std::uint64_t pending =
            shared.pending.load(std::memory_order_relaxed);
        core.telemetry()->frontier.store(pending, std::memory_order_relaxed);
        // The expensive gauges (engine bytes, memo stats) every ~1k
        // expansions; they take shard locks, so not every poll.
        if (polls % 32 == 0) core.publish_gauges(pending);
      }
    }

    SearchNode node;
    mine.pop(node);
    if (wt != nullptr) {
      wt->record_expand(static_cast<std::uint32_t>(node.transition.kind),
                        node.transition.a, node.transition.aux);
    }
    SearchCore::Expansion e = core.expand(node);
    ++tally.transitions;
    if (wt != nullptr) wt->add_transitions();

    if (e.new_state) {
      ++tally.unique_states;
      if (wt != nullptr) wt->add_unique();
      if (e.quiescent) {
        ++tally.quiescent_states;
        if (wt != nullptr) wt->add_quiescent();
      }
    } else if (!e.transition_violated) {
      // Under partial-order reduction a revisit can still carry children
      // (re-expansion of transitions every earlier arrival slept); they
      // are pushed below like any other successors.
      ++tally.revisits;
      if (wt != nullptr) wt->add_revisits();
    }

    // The expanded node leaves the pending count as its children join.
    tally.pending += static_cast<std::int64_t>(e.children.size()) - 1;
    if (capped) tally.publish();
    for (SearchNode& child : e.children) mine.push(std::move(child));
    // A violating transition or quiescent state (never one with children).
    if (!e.violations.empty()) {
      shared.record(e.violations);
      if (shared.options.stop_at_first_violation) {
        shared.halt(LimitReason::kNone);
        return;
      }
    }
    if (shared.waiting.load(std::memory_order_relaxed) > 0 &&
        mine.size() >= 2) {
      tally.publish();
      share(shared, mine);
    }
  }
}

}  // namespace

CheckerResult run_search(const SearchCore& core, unsigned threads,
                         Durability* dur) {
  const auto start = SearchClock::now();
  threads = std::max(threads, 1u);
  SharedSearch shared(core, threads, dur, start);

  CheckerResult result;
  std::vector<SearchNode> roots;
  if (dur != nullptr && dur->resumed()) {
    // Stores were reloaded by Durability::resume; carry the counters and
    // re-seed the rebuilt pending nodes (and the random frontier's RNG).
    dur->seed(result);
    shared.frontiers.front()->set_rng_state(dur->frontier_rng());
    roots = dur->take_nodes();
  } else {
    roots = core.init(result);
  }
  // A lone worker owns every pending node from the start, so its frontier
  // orders the whole search; several workers claim theirs from the deque.
  for (SearchNode& root : roots) {
    if (threads == 1) {
      shared.frontiers.front()->push(std::move(root));
    } else {
      shared.work.push_back(std::move(root));
    }
  }
  shared.pending.store(roots.size());
  shared.transitions.store(result.transitions);
  shared.unique_states.store(result.unique_states);
  shared.revisits.store(result.revisits);
  shared.quiescent_states.store(result.quiescent_states);
  shared.violations = std::move(result.violations);
  shared.seed_discovery = result.discovery;

  if (core.telemetry() != nullptr) {
    // Seed the reporter's cumulative totals with the resumed/init
    // counters; the per-worker counters only add this process's work.
    core.telemetry()->set_base(result.transitions, result.unique_states,
                               result.revisits, result.quiescent_states);
  }

  const CheckerOptions& options = core.options();
  // A resumed stop-at-first run that already holds a violation is done.
  if (options.stop_at_first_violation && !shared.violations.empty()) {
    shared.stop.store(true);
  }
  if (threads == 1) {
    search_worker(shared, 0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back(search_worker, std::ref(shared),
                           static_cast<std::size_t>(w));
    }
    for (std::thread& t : workers) t.join();
  }

  // Every worker has returned: the search is at rest. The halt runs bound
  // to worker slot 0, so its limit event and the final checkpoint land in
  // the flight recorder and the phase profile at any thread count.
  const LimitReason reason = shared.limit.load();
  const std::uint64_t pending = shared.pending.load();
  {
    const util::Telemetry::Binding bind(core.telemetry(), 0);
    if (util::WorkerTelemetry* const wt = util::Telemetry::current();
        wt != nullptr && reason != LimitReason::kNone) {
      wt->record_event(util::FlightEvent::Kind::kLimit, 0,
                       limit_reason_name(reason));
    }
    core.publish_gauges(pending);
    if (dur != nullptr) {
      // Whatever halted the run (limit, interrupt, memory, exhaustion)
      // leaves a final checkpoint, so resuming a finished run is an
      // idempotent no-op and an interrupted one continues where it
      // stopped.
      shared.save();
    }
  }
  shared.move_into(result);
  // "Exhausted" = the bounded state space was fully explored. In
  // collect-all mode a violation does not negate exhaustion; in
  // stop-at-first mode it does (the search was cut short).
  result.exhausted = pending == 0 && reason == LimitReason::kNone &&
                     !(options.stop_at_first_violation &&
                       result.found_violation());
  // Accumulate, not assign: a resumed run's seed discovery counters are
  // already in result.discovery.
  add_discovery_stats(result.discovery, core.discovery().stats());
  core.finish_stats(result, dur);
  result.seconds = seconds_since(start);
  return result;
}

namespace {

void walk_worker(const SearchCore& core, SharedTally& shared,
                 std::uint64_t rng_seed, unsigned worker, unsigned stride,
                 int walks, int max_steps) {
  const CheckerOptions& options = core.options();
  const Executor& executor = core.executor();
  util::SplitMix64 rng(rng_seed);
  const util::Telemetry::Binding bind(core.telemetry(), worker);
  util::WorkerTelemetry* const wt = util::Telemetry::current();
  std::uint64_t steps_since_publish = 0;
  std::uint64_t since_poll = 0;

  for (int w = static_cast<int>(worker); w < walks;
       w += static_cast<int>(stride)) {
    if (shared.stop.load(std::memory_order_relaxed)) return;
    SystemState state = executor.make_initial();
    std::shared_ptr<const PathNode> path;
    std::vector<ViolationRecord> recs;
    for (int step = 0; step < max_steps && recs.empty(); ++step) {
      if (++since_poll >= kPollStride) {
        since_poll = 0;
        if (shared.time_up(options.time_limit_seconds)) {
          shared.limit.store(LimitReason::kTime);
          shared.stop.store(true);
          return;
        }
      }
      auto ts = apply_strategy(options.strategy, core.config(), state,
                               executor.enabled(state, core.discovery()));
      if (ts.empty()) {
        shared.quiescent_states.fetch_add(1, std::memory_order_relaxed);
        if (wt != nullptr) wt->add_quiescent();
        core.check_quiescence(state, path, recs);
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
        const auto trace = trace_of(path);
        for (Violation& v : violations) {
          recs.push_back(ViolationRecord{std::move(v), trace});
        }
      }
    }
    if (!recs.empty()) {
      shared.record(recs);
      if (options.stop_at_first_violation) shared.stop.store(true);
    }
  }
}

}  // namespace

CheckerResult run_random_walks(const SearchCore& core, unsigned threads,
                               std::uint64_t seed, int walks, int max_steps) {
  const auto start = SearchClock::now();

  SharedTally shared(start);
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
  shared.move_into(result);
  result.discovery = core.discovery().stats();
  core.publish_gauges(0);
  core.finish_stats(result, nullptr);
  result.seconds = seconds_since(start);
  return result;
}

}  // namespace nicemc::mc
