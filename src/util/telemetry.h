// Search observability: per-worker phase profiling, progress streaming,
// and a halt-time flight recorder.
//
// The design contract (ISSUE 8 / ARCHITECTURE.md "Observability layer"):
//   * zero hot-path locks — every published number is a relaxed atomic on
//     a cache-line-isolated per-worker slot, written only by its owning
//     thread and read (racily, by design) by the progress reporter;
//   * strictly zero cost when telemetry is off — instrumentation points
//     read one thread-local pointer and branch; no clock is ever read,
//     no atomic ever touched;
//   * cheap when on — phase attribution uses *slicing*: one timestamp per
//     phase boundary (not two per scope), taken from the TSC where
//     available (~10ns) instead of clock_gettime (~25ns), so a fully
//     instrumented expand step costs ~100–150ns against a ~4.5µs budget
//     (scripts/telemetry_overhead.py, a CI step, enforces ≤ 1.05× wall
//     time plus 50 ms on the median of alternating on/off runs).
//
// Phase attribution is exhaustive: from bind to unbind every nanosecond
// of a worker's wall time lands in exactly one phase accumulator (kOther
// catches driver overhead no explicit scope claims), which is what makes
// "per-phase times sum to ≈ wall time per worker" checkable.
#ifndef NICE_UTIL_TELEMETRY_H
#define NICE_UTIL_TELEMETRY_H

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace nicemc::util {

/// The phase taxonomy of one search worker's wall time. Every instant a
/// worker is bound to a telemetry slot is attributed to exactly one phase.
enum class Phase : std::uint8_t {
  kClone,          // SystemState::clone() of the expansion source
  kApply,          // Executor::apply — transition semantics
  kEnabled,        // enabled-set enumeration incl. symbolic discovery
  kFootprint,      // por footprint computation (memo lookups included)
  kPropertyCheck,  // property monitors: on_events + at_quiescence
  kRemember,       // seen-set arrival: serialize, hash, insert, slept record
  kCheckpoint,     // durability snapshot serialization + slot write
  kIdle,           // parallel worker parked waiting for work / quiesce
  kOther,          // driver overhead not claimed by any scope above
};
inline constexpr std::size_t kPhaseCount = 9;
[[nodiscard]] const char* phase_name(Phase p) noexcept;

/// Plain (non-atomic) per-phase aggregate: slice count, total time, and a
/// log2 histogram of slice durations — mergeable across workers and runs.
struct PhaseStat {
  /// Bucket i holds slices with floor(log2(ns)) == i (bucket 0 also takes
  /// 0ns slices; the last bucket is open-ended: ≥ ~134ms).
  static constexpr std::size_t kBuckets = 28;
  std::uint64_t count{0};
  std::uint64_t total_ns{0};
  std::array<std::uint64_t, kBuckets> buckets{};

  void merge(const PhaseStat& o) noexcept;
};

/// One flight-recorder entry. Payload fields are generic u32/u64 slots so
/// the recorder stays engine-agnostic; the search layer maps kExpand's
/// (a, b, c) back to a transition (kind, actor, aux) when rendering.
/// `detail` must point at a string with static storage duration — the
/// ring never owns or copies it.
struct FlightEvent {
  enum class Kind : std::uint8_t {
    kExpand,      // a transition was expanded: a=kind, b=actor, c=aux
    kCheckpoint,  // durability snapshot written: value=payload bytes
    kWatchdog,    // memory-ladder step: value=accounted bytes
    kSignal,      // cooperative interrupt observed by the driver
    kLimit,       // a LimitReason halted the search: detail=reason
  };
  std::uint64_t seq{0};   // per-worker monotone sequence number
  std::uint64_t t_ns{0};  // nanoseconds since the owning Telemetry's epoch
  Kind kind{Kind::kExpand};
  std::uint32_t a{0};
  std::uint32_t b{0};
  std::uint32_t c{0};
  std::uint64_t value{0};
  const char* detail{nullptr};
};

/// Fixed ring of the most recent FlightEvents. Owner-thread writes only;
/// read after the worker unbinds (join/halt provides the happens-before),
/// never by the live progress reporter — so the fields stay plain.
class FlightRing {
 public:
  static constexpr std::size_t kSize = 64;

  void push(FlightEvent e) noexcept {
    e.seq = seq_;
    ring_[seq_ % kSize] = e;
    ++seq_;
  }
  /// Recorded events, oldest first (at most kSize).
  [[nodiscard]] std::vector<FlightEvent> events() const;
  [[nodiscard]] std::uint64_t recorded() const noexcept { return seq_; }

 private:
  std::array<FlightEvent, kSize> ring_{};
  std::uint64_t seq_{0};
};

class Telemetry;

/// Per-worker telemetry slot. The owning worker thread is the only writer
/// of every field; the atomics exist so the reporter thread's concurrent
/// reads are race-free (relaxed — monotone counters, any torn-free value
/// is a valid snapshot).
class alignas(64) WorkerTelemetry {
 public:
  /// End the current phase slice (attributing it) and start `p`.
  /// Returns the previous phase so scopes can restore it.
  Phase switch_phase(Phase p) noexcept;

  // Owner-only writers, so a relaxed load plus store suffices: no
  // lock-prefixed RMW on the per-transition path (see kPublishStride).
  void add_transitions(std::uint64_t n = 1) noexcept { bump(transitions_, n); }
  void add_unique(std::uint64_t n = 1) noexcept { bump(unique_, n); }
  void add_revisits(std::uint64_t n = 1) noexcept { bump(revisits_, n); }
  void add_quiescent(std::uint64_t n = 1) noexcept { bump(quiescent_, n); }

  void record_expand(std::uint32_t kind, std::uint32_t actor,
                     std::uint32_t aux) noexcept;
  void record_event(FlightEvent::Kind kind, std::uint64_t value,
                    const char* detail) noexcept;

  /// Exact per-phase aggregate. Owner-thread or post-join/flush reads
  /// only (the fields are plain; the live reporter must use
  /// published_phase_ns instead).
  [[nodiscard]] PhaseStat phase(Phase p) const noexcept;
  /// Reporter-safe per-phase total: the atomic mirror the owner publishes
  /// every kPublishStride slices (and on any slice ≥ 1ms, so long idle
  /// waits stay live). Slightly stale by design — staleness is bounded
  /// per worker, and snapshots are seconds apart.
  [[nodiscard]] std::uint64_t published_phase_ns(Phase p) const noexcept {
    return pub_ns_[static_cast<std::size_t>(p)].load(
        std::memory_order_relaxed);
  }
  /// Wall nanoseconds this slot has been bound (completed bindings plus
  /// the live one, if any).
  [[nodiscard]] std::uint64_t wall_ns() const noexcept;

  [[nodiscard]] std::uint64_t transitions() const noexcept {
    return transitions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t unique_states() const noexcept {
    return unique_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t revisits() const noexcept {
    return revisits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t quiescent() const noexcept {
    return quiescent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const FlightRing& ring() const noexcept { return ring_; }
  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  friend class Telemetry;

  void bind() noexcept;
  void unbind() noexcept;
  void publish_phases() noexcept;

  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }

  /// Phase-total publication cadence, in slices. The hot path must not
  /// touch atomics (a relaxed RMW is ~7ns and a boundary fires ~30 times
  /// per transition); plain accumulators plus a strided 9-store publish
  /// keep the boundary at roughly the cost of the TSC read.
  static constexpr std::uint32_t kPublishStride = 256;

  // Owner-thread-only hot state.
  Phase current_{Phase::kOther};
  std::uint64_t phase_start_tick_{0};
  double ns_per_tick_{1.0};
  std::uint64_t epoch_tick_{0};
  std::uint32_t slices_since_publish_{0};
  std::array<PhaseStat, kPhaseCount> local_{};
  FlightRing ring_;
  std::size_t id_{0};

  // Reporter-visible state (relaxed atomics).
  std::array<std::atomic<std::uint64_t>, kPhaseCount> pub_ns_{};
  std::atomic<std::uint64_t> transitions_{0};
  std::atomic<std::uint64_t> unique_{0};
  std::atomic<std::uint64_t> revisits_{0};
  std::atomic<std::uint64_t> quiescent_{0};
  std::atomic<std::uint64_t> wall_ns_{0};     // completed bindings
  std::atomic<std::uint64_t> bind_ns_{0};     // epoch-ns of the live bind
  std::atomic<bool> bound_{false};
};

/// The telemetry context of one search: per-worker slots, shared gauges
/// the drivers publish at poll points, and resumed-counter bases so a
/// resumed run's stream continues the uninterrupted totals.
class Telemetry {
 public:
  explicit Telemetry(std::size_t workers);

  [[nodiscard]] std::size_t workers() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] WorkerTelemetry& worker(std::size_t i) noexcept {
    return *slots_[i];
  }
  [[nodiscard]] const WorkerTelemetry& worker(std::size_t i) const noexcept {
    return *slots_[i];
  }

  /// The slot bound to the calling thread, or nullptr when telemetry is
  /// off / the thread is unbound. The single branch every instrumentation
  /// point pays when telemetry is disabled.
  [[nodiscard]] static WorkerTelemetry* current() noexcept { return tls_; }

  /// RAII thread→slot binding. A null Telemetry binds nothing (and makes
  /// every scope in the dynamic extent a no-op). Restores the previous
  /// binding on destruction, so nested searches compose.
  class Binding {
   public:
    Binding(Telemetry* t, std::size_t worker) noexcept;
    ~Binding();
    Binding(const Binding&) = delete;
    Binding& operator=(const Binding&) = delete;

   private:
    WorkerTelemetry* prev_{nullptr};
    WorkerTelemetry* slot_{nullptr};
  };

  /// Resumed-run seed totals (counted into totals() alongside the slot
  /// counters, so a resumed run's stream continues where it left off).
  void set_base(std::uint64_t transitions, std::uint64_t unique,
                std::uint64_t revisits, std::uint64_t quiescent) noexcept;

  /// Shared gauges, published by the drivers at their poll/quiesce points
  /// (never computed on the hot path).
  std::atomic<std::uint64_t> frontier{0};
  std::atomic<std::uint64_t> engine_bytes{0};
  std::atomic<std::uint64_t> memo_fp_hits{0};
  std::atomic<std::uint64_t> memo_fp_misses{0};
  std::atomic<std::uint64_t> memo_disc_hits{0};
  std::atomic<std::uint64_t> memo_disc_misses{0};

  struct Totals {
    std::uint64_t transitions{0};
    std::uint64_t unique_states{0};
    std::uint64_t revisits{0};
    std::uint64_t quiescent_states{0};
    std::uint64_t wall_ns{0};  // summed bound wall time across workers
    std::uint64_t idle_ns{0};
  };
  [[nodiscard]] Totals totals() const noexcept;
  /// Exact merged phase profile — halt-time only (plain per-worker fields;
  /// requires owner-thread, post-flush, or post-join reads).
  [[nodiscard]] std::array<PhaseStat, kPhaseCount> merged_phases() const;
  /// Reporter-safe merged phase totals (published atomic mirrors only).
  [[nodiscard]] std::array<std::uint64_t, kPhaseCount> published_phase_ns()
      const noexcept;
  /// Flight events of every worker merged, oldest first.
  [[nodiscard]] std::vector<FlightEvent> merged_flight() const;

  [[nodiscard]] double ns_per_tick() const noexcept { return ns_per_tick_; }
  /// Nanoseconds since this Telemetry was constructed.
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

 private:
  static thread_local WorkerTelemetry* tls_;

  std::vector<std::unique_ptr<WorkerTelemetry>> slots_;
  double ns_per_tick_{1.0};
  std::uint64_t epoch_tick_{0};
  // Relaxed atomics: set_base() runs on the driver thread after a resume
  // restore, by which point the reporter thread may already be summing
  // totals(). Cold (once per run), so the atomic costs nothing.
  std::atomic<std::uint64_t> base_transitions_{0};
  std::atomic<std::uint64_t> base_unique_{0};
  std::atomic<std::uint64_t> base_revisits_{0};
  std::atomic<std::uint64_t> base_quiescent_{0};
};

/// Scoped phase attribution. Reads the thread-local slot once; when no
/// slot is bound (telemetry off) the constructor is a branch and nothing
/// else. Nested scopes *slice*: the inner phase's time is subtracted from
/// the outer's, so per-phase totals always sum to the bound wall time.
class PhaseScope {
 public:
  explicit PhaseScope(Phase p) noexcept : w_(Telemetry::current()) {
    if (w_ != nullptr) prev_ = w_->switch_phase(p);
  }
  ~PhaseScope() {
    if (w_ != nullptr) (void)w_->switch_phase(prev_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  WorkerTelemetry* w_;
  Phase prev_{Phase::kOther};
};

/// ---- Progress streaming ---------------------------------------------------

/// One line of the NDJSON progress stream. Counters are cumulative over
/// the logical run (resume-seeded), so a kill-and-resume stream stays
/// monotone; rates and phase times describe the current process's run.
struct ProgressSnapshot {
  std::string event{"progress"};  // "progress" | "halt"
  std::string reason;             // halt lines: the LimitReason name
  std::uint64_t seq{0};
  double elapsed_seconds{0.0};
  std::uint64_t workers{0};
  std::uint64_t transitions{0};
  std::uint64_t unique_states{0};
  std::uint64_t revisits{0};
  std::uint64_t quiescent_states{0};
  std::uint64_t frontier{0};
  double transitions_per_sec{0.0};  // since the previous snapshot
  double unique_per_sec{0.0};
  double utilization{0.0};  // 1 - idle/wall across workers, in [0, 1]
  double memo_footprint_hit_rate{0.0};
  double memo_discover_hit_rate{0.0};
  std::uint64_t engine_bytes{0};
  std::uint64_t peak_rss_bytes{0};
  std::array<std::uint64_t, kPhaseCount> phase_ns{};

  /// One NDJSON line, newline-terminated.
  [[nodiscard]] std::string to_ndjson() const;
  /// Exact inverse of to_ndjson for this schema (not a general JSON
  /// parser). Returns false on any missing/malformed field.
  [[nodiscard]] static bool parse(std::string_view line,
                                  ProgressSnapshot& out);
};

/// Background reporter thread: every `interval_seconds` it snapshots the
/// Telemetry (relaxed reads only — it never blocks a worker), appends an
/// NDJSON line to `path`, and optionally repaints a one-line TTY summary
/// on stderr. stop() emits a final "halt" line carrying the limit reason.
class ProgressReporter {
 public:
  struct Options {
    std::string path;  // empty = no file (TTY only)
    double interval_seconds{1.0};
    bool tty{false};
    /// Append to an existing stream (resumed runs): the sequence number
    /// continues from the lines already present.
    bool append{false};
  };

  ProgressReporter(Telemetry& telemetry, Options options);
  ~ProgressReporter();

  /// Open the stream and start the reporter thread. Returns false (no
  /// thread started) when the file cannot be opened.
  bool start();
  /// Emit the final snapshot (event="halt", reason=`halt_reason`), stop
  /// and join the reporter thread. Idempotent.
  void stop(const char* halt_reason);

  [[nodiscard]] std::uint64_t snapshots_emitted() const noexcept {
    return emitted_.load(std::memory_order_relaxed);
  }

 private:
  void loop();
  [[nodiscard]] ProgressSnapshot make_snapshot();
  void emit(const ProgressSnapshot& snap);

  Telemetry& telemetry_;
  Options options_;
  std::FILE* file_{nullptr};
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_{false};
  bool started_{false};
  std::uint64_t seq_{0};
  std::atomic<std::uint64_t> emitted_{0};
  // Previous-snapshot state for rate computation.
  double prev_elapsed_{0.0};
  std::uint64_t prev_transitions_{0};
  std::uint64_t prev_unique_{0};
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace nicemc::util

#endif  // NICE_UTIL_TELEMETRY_H
