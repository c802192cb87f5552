#include "util/telemetry.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdlib>

#include "util/resource.h"

namespace nicemc::util {

namespace {

/// Raw timebase read. On x86_64 the TSC is invariant and core-synchronized
/// on every CPU this project targets, and costs ~10ns against ~25ns for
/// clock_gettime — the difference is what keeps a fully instrumented
/// expand step inside the 1.05× overhead gate. Elsewhere fall back to the
/// steady clock (ticks are then nanoseconds and calibration is identity).
inline std::uint64_t read_ticks() noexcept {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Nanoseconds per tick, measured once per Telemetry over a short busy
/// window. 200µs keeps construction cheap while bounding the calibration
/// error well under 1%.
double calibrate_ns_per_tick() noexcept {
#if defined(__x86_64__)
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t k0 = read_ticks();
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    const auto el =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - t0)
            .count();
    if (el >= 200'000) {
      const std::uint64_t k1 = read_ticks();
      if (k1 <= k0) return 1.0;  // non-monotone TSC: degrade gracefully
      return static_cast<double>(el) / static_cast<double>(k1 - k0);
    }
  }
#else
  return 1.0;
#endif
}

inline std::size_t log2_bucket(std::uint64_t ns) noexcept {
  const std::size_t b =
      static_cast<std::size_t>(std::bit_width(ns | 1) - 1);
  return b < PhaseStat::kBuckets ? b : PhaseStat::kBuckets - 1;
}

}  // namespace

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kClone: return "clone";
    case Phase::kApply: return "apply";
    case Phase::kEnabled: return "enabled";
    case Phase::kFootprint: return "footprint";
    case Phase::kPropertyCheck: return "property_check";
    case Phase::kRemember: return "remember";
    case Phase::kCheckpoint: return "checkpoint";
    case Phase::kIdle: return "idle";
    case Phase::kOther: return "other";
  }
  return "?";
}

void PhaseStat::merge(const PhaseStat& o) noexcept {
  count += o.count;
  total_ns += o.total_ns;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
}

std::vector<FlightEvent> FlightRing::events() const {
  std::vector<FlightEvent> out;
  const std::uint64_t n = seq_ < kSize ? seq_ : kSize;
  out.reserve(n);
  const std::uint64_t first = seq_ - n;
  for (std::uint64_t s = first; s < seq_; ++s) {
    out.push_back(ring_[s % kSize]);
  }
  return out;
}

// ---- WorkerTelemetry --------------------------------------------------------

Phase WorkerTelemetry::switch_phase(Phase p) noexcept {
  const std::uint64_t now = read_ticks();
  const std::uint64_t dt = now - phase_start_tick_;
  const auto ns =
      static_cast<std::uint64_t>(static_cast<double>(dt) * ns_per_tick_);
  // Plain owner-only accumulation: the boundary costs the TSC read plus a
  // handful of arithmetic ops, no atomics (see kPublishStride).
  PhaseStat& ph = local_[static_cast<std::size_t>(current_)];
  ph.count += 1;
  ph.total_ns += ns;
  ph.buckets[log2_bucket(ns)] += 1;
  const Phase prev = current_;
  current_ = p;
  phase_start_tick_ = now;
  // The ≥1ms clause keeps rare long slices (idle waits, checkpoint
  // writes) visible to the reporter without waiting out the stride.
  if (++slices_since_publish_ >= kPublishStride || ns >= 1000000) {
    publish_phases();
  }
  return prev;
}

void WorkerTelemetry::publish_phases() noexcept {
  slices_since_publish_ = 0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    pub_ns_[p].store(local_[p].total_ns, std::memory_order_relaxed);
  }
}

void WorkerTelemetry::record_expand(std::uint32_t kind, std::uint32_t actor,
                                    std::uint32_t aux) noexcept {
  FlightEvent e;
  e.kind = FlightEvent::Kind::kExpand;
  e.a = kind;
  e.b = actor;
  e.c = aux;
  e.t_ns = static_cast<std::uint64_t>(
      static_cast<double>(read_ticks() - epoch_tick_) * ns_per_tick_);
  ring_.push(e);
}

void WorkerTelemetry::record_event(FlightEvent::Kind kind,
                                   std::uint64_t value,
                                   const char* detail) noexcept {
  FlightEvent e;
  e.kind = kind;
  e.value = value;
  e.detail = detail;
  e.t_ns = static_cast<std::uint64_t>(
      static_cast<double>(read_ticks() - epoch_tick_) * ns_per_tick_);
  ring_.push(e);
}

PhaseStat WorkerTelemetry::phase(Phase p) const noexcept {
  return local_[static_cast<std::size_t>(p)];
}

std::uint64_t WorkerTelemetry::wall_ns() const noexcept {
  std::uint64_t ns = wall_ns_.load(std::memory_order_relaxed);
  if (bound_.load(std::memory_order_relaxed)) {
    const std::uint64_t now_ns = static_cast<std::uint64_t>(
        static_cast<double>(read_ticks() - epoch_tick_) * ns_per_tick_);
    const std::uint64_t bind = bind_ns_.load(std::memory_order_relaxed);
    if (now_ns > bind) ns += now_ns - bind;
  }
  return ns;
}

void WorkerTelemetry::bind() noexcept {
  const std::uint64_t now = read_ticks();
  phase_start_tick_ = now;
  current_ = Phase::kOther;
  bind_ns_.store(
      static_cast<std::uint64_t>(static_cast<double>(now - epoch_tick_) *
                                 ns_per_tick_),
      std::memory_order_relaxed);
  bound_.store(true, std::memory_order_relaxed);
}

void WorkerTelemetry::unbind() noexcept {
  // Close the live phase slice so phase totals equal the bound wall time.
  (void)switch_phase(Phase::kOther);
  publish_phases();
  const std::uint64_t now_ns = static_cast<std::uint64_t>(
      static_cast<double>(read_ticks() - epoch_tick_) * ns_per_tick_);
  const std::uint64_t bind = bind_ns_.load(std::memory_order_relaxed);
  if (now_ns > bind) {
    wall_ns_.fetch_add(now_ns - bind, std::memory_order_relaxed);
  }
  bound_.store(false, std::memory_order_relaxed);
}

// ---- Telemetry --------------------------------------------------------------

thread_local WorkerTelemetry* Telemetry::tls_ = nullptr;

Telemetry::Telemetry(std::size_t workers) {
  ns_per_tick_ = calibrate_ns_per_tick();
  epoch_tick_ = read_ticks();
  if (workers == 0) workers = 1;
  slots_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    auto w = std::make_unique<WorkerTelemetry>();
    w->ns_per_tick_ = ns_per_tick_;
    w->epoch_tick_ = epoch_tick_;
    w->id_ = i;
    slots_.push_back(std::move(w));
  }
}

Telemetry::Binding::Binding(Telemetry* t, std::size_t worker) noexcept {
  if (t == nullptr || worker >= t->workers()) return;
  prev_ = tls_;
  slot_ = &t->worker(worker);
  slot_->bind();
  tls_ = slot_;
}

Telemetry::Binding::~Binding() {
  if (slot_ == nullptr) return;
  slot_->unbind();
  tls_ = prev_;
}

void Telemetry::set_base(std::uint64_t transitions, std::uint64_t unique,
                         std::uint64_t revisits,
                         std::uint64_t quiescent) noexcept {
  base_transitions_.store(transitions, std::memory_order_relaxed);
  base_unique_.store(unique, std::memory_order_relaxed);
  base_revisits_.store(revisits, std::memory_order_relaxed);
  base_quiescent_.store(quiescent, std::memory_order_relaxed);
}

Telemetry::Totals Telemetry::totals() const noexcept {
  Totals t;
  t.transitions = base_transitions_.load(std::memory_order_relaxed);
  t.unique_states = base_unique_.load(std::memory_order_relaxed);
  t.revisits = base_revisits_.load(std::memory_order_relaxed);
  t.quiescent_states = base_quiescent_.load(std::memory_order_relaxed);
  for (const auto& w : slots_) {
    t.transitions += w->transitions();
    t.unique_states += w->unique_states();
    t.revisits += w->revisits();
    t.quiescent_states += w->quiescent();
    t.wall_ns += w->wall_ns();
    // Published mirror, not the exact profile: totals() runs on the live
    // reporter thread while workers keep writing their plain stats.
    t.idle_ns += w->published_phase_ns(Phase::kIdle);
  }
  return t;
}

std::array<PhaseStat, kPhaseCount> Telemetry::merged_phases() const {
  std::array<PhaseStat, kPhaseCount> out{};
  for (const auto& w : slots_) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      out[p].merge(w->phase(static_cast<Phase>(p)));
    }
  }
  return out;
}

std::array<std::uint64_t, kPhaseCount> Telemetry::published_phase_ns()
    const noexcept {
  std::array<std::uint64_t, kPhaseCount> out{};
  for (const auto& w : slots_) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      out[p] += w->published_phase_ns(static_cast<Phase>(p));
    }
  }
  return out;
}

std::vector<FlightEvent> Telemetry::merged_flight() const {
  std::vector<std::pair<std::size_t, FlightEvent>> tagged;
  for (const auto& w : slots_) {
    for (const FlightEvent& e : w->ring().events()) {
      tagged.emplace_back(w->id(), e);
    }
  }
  std::sort(tagged.begin(), tagged.end(),
            [](const auto& x, const auto& y) {
              return x.second.t_ns < y.second.t_ns;
            });
  std::vector<FlightEvent> out;
  out.reserve(tagged.size());
  for (auto& [id, e] : tagged) {
    // Reuse the seq slot to carry the worker id to the renderer; the
    // per-worker ordering is preserved by the stable time sort above.
    e.seq = id;
    out.push_back(e);
  }
  return out;
}

std::uint64_t Telemetry::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      static_cast<double>(read_ticks() - epoch_tick_) * ns_per_tick_);
}

// ---- ProgressSnapshot -------------------------------------------------------

namespace {

void append_kv(std::string& s, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64, key, v);
  s += buf;
}

void append_kv(std::string& s, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.6f", key, v);
  s += buf;
}

void append_kv(std::string& s, const char* key, const std::string& v) {
  s += '"';
  s += key;
  s += "\":\"";
  s += v;  // schema strings are identifier-like; no escaping needed
  s += '"';
}

/// Locate `"key":` in `line` and return the text after the colon, or an
/// empty view when absent.
std::string_view value_after(std::string_view line, const char* key) {
  std::string pat = "\"";
  pat += key;
  pat += "\":";
  const auto pos = line.find(pat);
  if (pos == std::string_view::npos) return {};
  return line.substr(pos + pat.size());
}

bool parse_u64(std::string_view line, const char* key, std::uint64_t& out) {
  const std::string_view v = value_after(line, key);
  if (v.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(std::string(v.substr(0, 24)).c_str(), &end, 10);
  return end != nullptr;
}

bool parse_f64(std::string_view line, const char* key, double& out) {
  const std::string_view v = value_after(line, key);
  if (v.empty()) return false;
  out = std::strtod(std::string(v.substr(0, 32)).c_str(), nullptr);
  return true;
}

bool parse_str(std::string_view line, const char* key, std::string& out) {
  std::string_view v = value_after(line, key);
  if (v.empty() || v.front() != '"') return false;
  v.remove_prefix(1);
  const auto end = v.find('"');
  if (end == std::string_view::npos) return false;
  out = std::string(v.substr(0, end));
  return true;
}

}  // namespace

std::string ProgressSnapshot::to_ndjson() const {
  std::string s = "{";
  append_kv(s, "event", event);
  if (!reason.empty()) {
    s += ',';
    append_kv(s, "reason", reason);
  }
  s += ',';
  append_kv(s, "seq", seq);
  s += ',';
  append_kv(s, "elapsed_seconds", elapsed_seconds);
  s += ',';
  append_kv(s, "workers", workers);
  s += ',';
  append_kv(s, "transitions", transitions);
  s += ',';
  append_kv(s, "unique_states", unique_states);
  s += ',';
  append_kv(s, "revisits", revisits);
  s += ',';
  append_kv(s, "quiescent_states", quiescent_states);
  s += ',';
  append_kv(s, "frontier", frontier);
  s += ',';
  append_kv(s, "transitions_per_sec", transitions_per_sec);
  s += ',';
  append_kv(s, "unique_per_sec", unique_per_sec);
  s += ',';
  append_kv(s, "utilization", utilization);
  s += ',';
  append_kv(s, "memo_footprint_hit_rate", memo_footprint_hit_rate);
  s += ',';
  append_kv(s, "memo_discover_hit_rate", memo_discover_hit_rate);
  s += ',';
  append_kv(s, "engine_bytes", engine_bytes);
  s += ',';
  append_kv(s, "peak_rss_bytes", peak_rss_bytes);
  s += ",\"phase_ns\":{";
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    if (p != 0) s += ',';
    append_kv(s, phase_name(static_cast<Phase>(p)), phase_ns[p]);
  }
  s += "}}\n";
  return s;
}

bool ProgressSnapshot::parse(std::string_view line, ProgressSnapshot& out) {
  out = ProgressSnapshot{};
  if (!parse_str(line, "event", out.event)) return false;
  (void)parse_str(line, "reason", out.reason);  // progress lines omit it
  bool ok = parse_u64(line, "seq", out.seq);
  ok = ok && parse_f64(line, "elapsed_seconds", out.elapsed_seconds);
  ok = ok && parse_u64(line, "workers", out.workers);
  ok = ok && parse_u64(line, "transitions", out.transitions);
  ok = ok && parse_u64(line, "unique_states", out.unique_states);
  ok = ok && parse_u64(line, "revisits", out.revisits);
  ok = ok && parse_u64(line, "quiescent_states", out.quiescent_states);
  ok = ok && parse_u64(line, "frontier", out.frontier);
  ok = ok && parse_f64(line, "transitions_per_sec", out.transitions_per_sec);
  ok = ok && parse_f64(line, "unique_per_sec", out.unique_per_sec);
  ok = ok && parse_f64(line, "utilization", out.utilization);
  ok = ok && parse_f64(line, "memo_footprint_hit_rate",
                       out.memo_footprint_hit_rate);
  ok = ok && parse_f64(line, "memo_discover_hit_rate",
                       out.memo_discover_hit_rate);
  ok = ok && parse_u64(line, "engine_bytes", out.engine_bytes);
  ok = ok && parse_u64(line, "peak_rss_bytes", out.peak_rss_bytes);
  const auto obj = line.find("\"phase_ns\":{");
  if (obj == std::string_view::npos) return false;
  const std::string_view phases = line.substr(obj);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    ok = ok && parse_u64(phases, phase_name(static_cast<Phase>(p)),
                         out.phase_ns[p]);
  }
  return ok;
}

// ---- ProgressReporter -------------------------------------------------------

ProgressReporter::ProgressReporter(Telemetry& telemetry, Options options)
    : telemetry_(telemetry), options_(std::move(options)) {}

ProgressReporter::~ProgressReporter() { stop(nullptr); }

bool ProgressReporter::start() {
  if (started_) return true;
  if (!options_.path.empty()) {
    if (options_.append) {
      // Continue an interrupted stream: the next seq follows the lines
      // already present so the combined file reads as one monotone run.
      if (std::FILE* prev = std::fopen(options_.path.c_str(), "rb")) {
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, prev)) > 0) {
          for (std::size_t i = 0; i < n; ++i) {
            if (buf[i] == '\n') ++seq_;
          }
        }
        std::fclose(prev);
      }
      file_ = std::fopen(options_.path.c_str(), "ab");
    } else {
      file_ = std::fopen(options_.path.c_str(), "wb");
    }
    if (file_ == nullptr) return false;
  }
  start_time_ = std::chrono::steady_clock::now();
  stop_ = false;
  started_ = true;
  thread_ = std::thread([this] { loop(); });
  return true;
}

void ProgressReporter::stop(const char* halt_reason) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (halt_reason != nullptr) {
    ProgressSnapshot snap = make_snapshot();
    snap.event = "halt";
    snap.reason = halt_reason;
    emit(snap);
  }
  if (options_.tty) std::fputc('\n', stderr);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  started_ = false;
}

void ProgressReporter::loop() {
  const auto interval = std::chrono::duration<double>(
      options_.interval_seconds > 0 ? options_.interval_seconds : 1.0);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cv_.wait_for(lock, interval, [this] { return stop_; })) return;
    lock.unlock();
    emit(make_snapshot());
    lock.lock();
  }
}

ProgressSnapshot ProgressReporter::make_snapshot() {
  ProgressSnapshot s;
  const auto now = std::chrono::steady_clock::now();
  s.elapsed_seconds =
      std::chrono::duration<double>(now - start_time_).count();
  s.seq = seq_;
  s.workers = telemetry_.workers();

  const Telemetry::Totals t = telemetry_.totals();
  s.transitions = t.transitions;
  s.unique_states = t.unique_states;
  s.revisits = t.revisits;
  s.quiescent_states = t.quiescent_states;
  s.frontier = telemetry_.frontier.load(std::memory_order_relaxed);
  s.engine_bytes = telemetry_.engine_bytes.load(std::memory_order_relaxed);
  s.peak_rss_bytes = peak_rss_bytes();

  const double dt = s.elapsed_seconds - prev_elapsed_;
  if (dt > 1e-9) {
    s.transitions_per_sec =
        static_cast<double>(s.transitions - prev_transitions_) / dt;
    s.unique_per_sec =
        static_cast<double>(s.unique_states - prev_unique_) / dt;
  }
  prev_elapsed_ = s.elapsed_seconds;
  prev_transitions_ = s.transitions;
  prev_unique_ = s.unique_states;

  if (t.wall_ns > 0) {
    const double util = 1.0 - static_cast<double>(t.idle_ns) /
                                  static_cast<double>(t.wall_ns);
    s.utilization = util < 0.0 ? 0.0 : (util > 1.0 ? 1.0 : util);
  }

  const auto hit_rate = [](std::uint64_t h, std::uint64_t m) {
    return h + m == 0 ? 0.0
                      : static_cast<double>(h) / static_cast<double>(h + m);
  };
  s.memo_footprint_hit_rate =
      hit_rate(telemetry_.memo_fp_hits.load(std::memory_order_relaxed),
               telemetry_.memo_fp_misses.load(std::memory_order_relaxed));
  s.memo_discover_hit_rate =
      hit_rate(telemetry_.memo_disc_hits.load(std::memory_order_relaxed),
               telemetry_.memo_disc_misses.load(std::memory_order_relaxed));

  // The published mirrors, never merged_phases(): the exact profile is
  // plain per-worker state and must not be read while workers run.
  s.phase_ns = telemetry_.published_phase_ns();
  return s;
}

void ProgressReporter::emit(const ProgressSnapshot& snap) {
  if (file_ != nullptr) {
    const std::string line = snap.to_ndjson();
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fflush(file_);
  }
  if (options_.tty) {
    std::fprintf(
        stderr,
        "\r[nicemc] %7.1fs  trans %10" PRIu64 " (%9.0f/s)  unique %9" PRIu64
        "  frontier %7" PRIu64 "  util %3.0f%%  rss %5.1f MiB   ",
        snap.elapsed_seconds, snap.transitions, snap.transitions_per_sec,
        snap.unique_states, snap.frontier, 100.0 * snap.utilization,
        static_cast<double>(snap.peak_rss_bytes) / (1024.0 * 1024.0));
    std::fflush(stderr);
  }
  seq_ = snap.seq + 1;
  emitted_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace nicemc::util
