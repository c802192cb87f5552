#include "mc/checkpoint.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace nicemc::mc {

using detail::SearchClock;
using detail::seconds_since;

// ---- Cooperative signal handling ------------------------------------------

namespace {

std::atomic<bool> g_interrupt{false};

extern "C" void nice_interrupt_handler(int /*signum*/) {
  // Async-signal-safe: one relaxed store. The drivers poll the flag
  // between expansions, checkpoint, and halt gracefully.
  g_interrupt.store(true, std::memory_order_relaxed);
}

}  // namespace

void install_cooperative_signal_handlers() {
#if defined(__unix__) || defined(__APPLE__)
  struct sigaction sa{};
  sa.sa_handler = nice_interrupt_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt blocking syscalls promptly
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
#else
  std::signal(SIGINT, nice_interrupt_handler);
  std::signal(SIGTERM, nice_interrupt_handler);
#endif
}

void request_interrupt() {
  g_interrupt.store(true, std::memory_order_relaxed);
}

void clear_interrupt() { g_interrupt.store(false, std::memory_order_relaxed); }

bool interrupt_requested() {
  return g_interrupt.load(std::memory_order_relaxed);
}

// ---- Checkpoint file layer ------------------------------------------------

namespace {

// "NICECKPT" as a big-endian u64, followed by the format version. Bump
// the version on any payload layout change — the loader rejects other
// versions with an explicit diagnostic instead of misparsing — and on any
// change to the state keys it stores (4: util::Renamer names buffer ids).
constexpr std::uint64_t kMagic = 0x4E494345434B5054ULL;
constexpr std::uint32_t kVersion = 4;
// magic u64 + version u32 + sequence u64 + payload-size u64 + Hash128.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 16;

// Coarse per-pending-node estimate for the watchdog's frontier term:
// the SearchNode itself plus its share of the COW state and path chain.
constexpr std::uint64_t kFrontierNodeBytes = 512;

bool read_file(const std::string& path, std::string& out,
               std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error = "cannot open " + path;
    return false;
  }
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    error = "read error on " + path;
    out.clear();
  }
  return ok;
}

#if defined(__unix__) || defined(__APPLE__)
void fsync_parent_dir(const std::string& path) {
  // Make the rename itself durable: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}
#endif

}  // namespace

std::string checkpoint_slot_a(const std::string& path) { return path + ".a"; }
std::string checkpoint_slot_b(const std::string& path) { return path + ".b"; }

SlotInfo read_checkpoint_slot(const std::string& slot_path) {
  SlotInfo info;
  std::string bytes;
  if (!read_file(slot_path, bytes, info.error)) return info;
  if (bytes.size() < kHeaderBytes) {
    info.error = slot_path + ": truncated header (" +
                 std::to_string(bytes.size()) + " bytes)";
    return info;
  }
  util::Des h(std::string_view(bytes.data(), kHeaderBytes));
  if (h.get_u64() != kMagic) {
    info.error = slot_path + ": bad magic (not a checkpoint file)";
    return info;
  }
  const std::uint32_t version = h.get_u32();
  if (version != kVersion) {
    info.error = slot_path + ": version mismatch (file v" +
                 std::to_string(version) + ", expected v" +
                 std::to_string(kVersion) + ")";
    return info;
  }
  info.sequence = h.get_u64();
  const std::uint64_t payload_size = h.get_u64();
  util::Hash128 sum;
  sum.lo = h.get_u64();
  sum.hi = h.get_u64();
  if (bytes.size() - kHeaderBytes != payload_size) {
    info.error = slot_path + ": truncated payload (" +
                 std::to_string(bytes.size() - kHeaderBytes) + " of " +
                 std::to_string(payload_size) + " bytes)";
    return info;
  }
  const std::string_view payload(bytes.data() + kHeaderBytes,
                                 bytes.size() - kHeaderBytes);
  const util::Hash128 actual = util::hash128(
      {reinterpret_cast<const std::byte*>(payload.data()), payload.size()});
  if (actual.lo != sum.lo || actual.hi != sum.hi) {
    info.error = slot_path + ": checksum mismatch (corrupt payload)";
    return info;
  }
  info.payload.assign(payload);
  info.valid = true;
  return info;
}

bool write_checkpoint_slot(const std::string& slot_path,
                           std::uint64_t sequence, std::string_view payload,
                           std::string& error) {
  util::Ser header;
  header.put_u64(kMagic);
  header.put_u32(kVersion);
  header.put_u64(sequence);
  header.put_u64(payload.size());
  const util::Hash128 sum = util::hash128(
      {reinterpret_cast<const std::byte*>(payload.data()), payload.size()});
  header.put_u64(sum.lo);
  header.put_u64(sum.hi);

  const std::string tmp = slot_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    error = "cannot create " + tmp;
    return false;
  }
  const auto head = header.bytes();
  bool ok = std::fwrite(head.data(), 1, head.size(), f) == head.size() &&
            std::fwrite(payload.data(), 1, payload.size(), f) ==
                payload.size() &&
            std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  // The durability point: data reaches disk before the rename publishes
  // it, so a kill at any instant leaves either the old slot or the new
  // one — never a torn file under the slot name.
  ok = ok && ::fsync(fileno(f)) == 0;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    error = "write failed for " + tmp;
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), slot_path.c_str()) != 0) {
    error = "rename failed for " + slot_path;
    std::remove(tmp.c_str());
    return false;
  }
#if defined(__unix__) || defined(__APPLE__)
  fsync_parent_dir(slot_path);
#endif
  return true;
}

// ---- Config fingerprint ---------------------------------------------------

util::Hash128 search_config_fingerprint(const SystemConfig& cfg,
                                        const CheckerOptions& options,
                                        const Executor& executor) {
  util::Ser s;
  s.put_u8(static_cast<std::uint8_t>(options.strategy));
  s.put_u8(static_cast<std::uint8_t>(options.state_store));
  s.put_u8(static_cast<std::uint8_t>(options.reduction));
  s.put_u64(options.max_depth);
  s.put_bool(options.stop_at_first_violation);
  s.put_bool(cfg.canonical_flowtables);
  // Symmetry changes what a stored key *means* (canonical image, not the
  // raw state), so a resume must match both the knob and the orbits.
  s.put_bool(options.symmetry);
  s.put_u32(static_cast<std::uint32_t>(cfg.symmetry_orbits.size()));
  for (const auto& orbit : cfg.symmetry_orbits) {
    s.put_u32(static_cast<std::uint32_t>(orbit.size()));
    for (of::HostId h : orbit) s.put_u32(h);
  }
  // The scenario itself: topology, app, hosts, scripts, and installed
  // property monitors all shape the canonical initial state.
  const SystemState initial = executor.make_initial();
  initial.serialize(s, cfg.canonical_flowtables);
  return s.hash();
}

// ---- Durability context ---------------------------------------------------

namespace {

void serialize_violations(util::Ser& s,
                          const std::vector<ViolationRecord>& vs) {
  s.put_u64(vs.size());
  for (const ViolationRecord& v : vs) {
    s.put_str(v.violation.property);
    s.put_str(v.violation.message);
    s.put_u32(static_cast<std::uint32_t>(v.trace.size()));
    for (const Transition& t : v.trace) t.serialize(s);
  }
}

bool deserialize_violations(util::Des& d, std::vector<ViolationRecord>& vs) {
  const std::uint64_t n = d.get_count(8);
  if (!d.ok()) return false;
  vs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ViolationRecord v;
    v.violation.property = std::string(d.get_str());
    v.violation.message = std::string(d.get_str());
    const std::uint32_t steps = d.get_u32();
    if (steps > d.remaining()) d.fail();
    if (!d.ok()) return false;
    v.trace.reserve(steps);
    for (std::uint32_t j = 0; j < steps; ++j) {
      v.trace.push_back(Transition::deserialize(d));
    }
    if (!d.ok()) return false;
    vs.push_back(std::move(v));
  }
  return true;
}

void serialize_sleep_set(util::Ser& s, const por::SleepSet& sleep) {
  s.put_u32(static_cast<std::uint32_t>(sleep.size()));
  for (const por::SleepEntry& z : sleep) {
    s.put_u64(z.thash);
    z.fp.serialize(s);
  }
}

bool deserialize_sleep_set(util::Des& d, por::SleepSet& sleep) {
  const std::uint32_t n = d.get_u32();
  if (n > d.remaining() / 8) d.fail();
  if (!d.ok()) return false;
  sleep.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    por::SleepEntry z;
    z.thash = d.get_u64();
    z.fp = por::Footprint::deserialize(d);
    sleep.push_back(std::move(z));
  }
  return d.ok();
}

bool expect_tag(util::Des& d, char tag) {
  if (static_cast<char>(d.get_u8()) != tag) d.fail();
  return d.ok();
}

}  // namespace

Durability::Durability(const CheckerOptions& options, util::Hash128 config_fp)
    : options_(options),
      config_fp_(config_fp),
      last_save_(SearchClock::now()) {
  if (options_.handle_signals) install_cooperative_signal_handlers();
}

bool Durability::due() const {
  return checkpointing() && options_.checkpoint_interval_seconds > 0 &&
         seconds_since(last_save_) >= options_.checkpoint_interval_seconds;
}

bool Durability::save(const SearchCore& core, const Snapshot& snap) {
  if (!checkpointing()) return true;

  // Serialization + slot write are attributed to the checkpoint phase
  // (no-op when the calling thread carries no telemetry binding).
  const util::PhaseScope phase(util::Phase::kCheckpoint);

  util::Ser s;
  s.put_tag('C');
  s.put_u64(config_fp_.lo);
  s.put_u64(config_fp_.hi);

  s.put_tag('K');
  s.put_u64(snap.transitions);
  s.put_u64(snap.unique_states);
  s.put_u64(snap.revisits);
  s.put_u64(snap.quiescent_states);

  s.put_tag('V');
  static const std::vector<ViolationRecord> kNoViolations;
  serialize_violations(s,
                       snap.violations != nullptr ? *snap.violations
                                                  : kNoViolations);

  s.put_tag('D');
  s.put_u64(snap.discovery.packet_discoveries);
  s.put_u64(snap.discovery.stats_discoveries);
  s.put_u64(snap.discovery.handler_runs);
  s.put_u64(snap.discovery.solver_queries);
  s.put_u64(snap.discovery.packets_found);

  s.put_tag('S');
  core.seen().serialize(s);

  s.put_tag('B');
  s.put_bool(core.collapse() != nullptr);
  if (core.collapse() != nullptr) core.collapse()->serialize(s);

  s.put_tag('F');
  s.put_u64(snap.frontier_rng);

  // The shared PathNode DAG as a parent-indexed table (parents strictly
  // before children), then the pending nodes referencing it. States are
  // not stored at all — restore rebuilds them by deterministic replay.
  std::vector<const SearchNode*> nodes;
  std::unordered_map<const PathNode*, std::uint32_t> index;
  std::vector<const PathNode*> order;
  std::vector<const PathNode*> chain;
  const auto register_path = [&](const PathNode* p) {
    chain.clear();
    while (p != nullptr && index.find(p) == index.end()) {
      chain.push_back(p);
      p = p->parent.get();
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      index.emplace(*it, static_cast<std::uint32_t>(order.size()));
      order.push_back(*it);
    }
  };
  snap.for_each_node([&](const SearchNode& n) {
    nodes.push_back(&n);
    register_path(n.path.get());
  });
  const auto path_ref = [&](const PathNode* p) -> std::uint32_t {
    return p == nullptr ? 0 : index.at(p) + 1;
  };

  s.put_u64(order.size());
  for (const PathNode* p : order) {
    s.put_u32(path_ref(p->parent.get()));
    p->transition.serialize(s);
  }
  s.put_u64(nodes.size());
  for (const SearchNode* n : nodes) {
    s.put_u32(path_ref(n->path.get()));
    n->transition.serialize(s);
    s.put_u64(n->depth);
    serialize_sleep_set(s, n->sleep);
  }

  const std::string payload = s.take();
  const bool slot_a = sequence_ % 2 == 1;
  const std::string slot = slot_a
                               ? checkpoint_slot_a(options_.checkpoint_path)
                               : checkpoint_slot_b(options_.checkpoint_path);
  std::string error;
  if (!write_checkpoint_slot(slot, sequence_, payload, error)) return false;
  ++sequence_;
  ++checkpoints_written_;
  checkpoint_bytes_ = payload.size() + kHeaderBytes;
  last_save_ = SearchClock::now();
  if (util::WorkerTelemetry* wt = util::Telemetry::current();
      wt != nullptr) {
    wt->record_event(util::FlightEvent::Kind::kCheckpoint,
                     checkpoint_bytes_, slot_a ? "slot_a" : "slot_b");
  }
  return true;
}

bool Durability::parse_payload(const SearchCore& core, util::Des& d,
                               std::string& error) {
  // Section order mirrors save(). Cheap validations (fingerprint) run
  // before any store is touched; a failure after stores were touched
  // clears them so the next candidate (or a fresh run) starts clean.
  if (!expect_tag(d, 'C')) {
    error = "missing config section";
    return false;
  }
  util::Hash128 fp;
  fp.lo = d.get_u64();
  fp.hi = d.get_u64();
  if (!d.ok() || fp.lo != config_fp_.lo || fp.hi != config_fp_.hi) {
    error = "configuration fingerprint mismatch (checkpoint was written "
            "by a different scenario/options combination)";
    return false;
  }

  if (!expect_tag(d, 'K')) {
    error = "missing counters section";
    return false;
  }
  seed_transitions_ = d.get_u64();
  seed_unique_ = d.get_u64();
  seed_revisits_ = d.get_u64();
  seed_quiescent_ = d.get_u64();

  if (!expect_tag(d, 'V') ||
      !deserialize_violations(d, seed_violations_)) {
    error = "malformed violations section";
    seed_violations_.clear();
    return false;
  }

  if (!expect_tag(d, 'D')) {
    error = "missing discovery section";
    return false;
  }
  seed_discovery_.packet_discoveries = d.get_u64();
  seed_discovery_.stats_discoveries = d.get_u64();
  seed_discovery_.handler_runs = d.get_u64();
  seed_discovery_.solver_queries = d.get_u64();
  seed_discovery_.packets_found = d.get_u64();

  const auto clear_stores = [&core] {
    core.seen().clear();
    if (core.collapse() != nullptr) core.collapse()->clear();
  };

  // Store sections. Both stores hold opaque byte keys (the seen-set's id
  // tuples, slept records included, reference collapse-table ids *by
  // value*), and the collapse restore re-interns blobs in dense id order,
  // reproducing the exact id assignment — so restoring in payload order
  // keeps every cross-reference valid verbatim. A reduction-mode mismatch
  // never reaches here: the reduction is part of the config fingerprint.
  if (!expect_tag(d, 'S')) {
    error = "missing seen-set section";
    return false;
  }
  if (!core.seen().restore(d)) {
    error = "malformed seen-set section";
    clear_stores();
    return false;
  }

  if (!expect_tag(d, 'B')) {
    error = "missing collapse section";
    clear_stores();
    return false;
  }
  const bool has_collapse = d.get_bool();
  if (has_collapse != (core.collapse() != nullptr)) {
    error = "collapse-table presence mismatch";
    clear_stores();
    return false;
  }
  if (has_collapse && !core.collapse()->restore(d)) {
    error = "malformed collapse-table section";
    clear_stores();
    return false;
  }

  if (!expect_tag(d, 'F')) {
    error = "missing frontier section";
    clear_stores();
    return false;
  }
  frontier_rng_ = d.get_u64();

  const std::uint64_t n_paths = d.get_count(5);
  if (!d.ok()) {
    error = "malformed frontier path table";
    clear_stores();
    return false;
  }
  std::vector<std::shared_ptr<const PathNode>> paths;
  std::vector<std::uint32_t> parent_of;
  paths.reserve(n_paths);
  parent_of.reserve(n_paths);
  for (std::uint64_t i = 0; i < n_paths; ++i) {
    const std::uint32_t pref = d.get_u32();
    if (pref > i) d.fail();  // parents are strictly before children
    Transition t = Transition::deserialize(d);
    if (!d.ok()) {
      error = "malformed frontier path table";
      clear_stores();
      return false;
    }
    paths.push_back(std::make_shared<const PathNode>(
        PathNode{pref == 0 ? nullptr : paths[pref - 1], std::move(t)}));
    parent_of.push_back(pref);
  }

  const std::uint64_t n_nodes = d.get_count(5);
  if (!d.ok()) {
    error = "malformed frontier nodes";
    clear_stores();
    return false;
  }
  struct PendingNode {
    std::uint32_t path_ref{0};
    SearchNode node;
  };
  std::vector<PendingNode> pending;
  pending.reserve(n_nodes);
  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    PendingNode p;
    p.path_ref = d.get_u32();
    if (p.path_ref > n_paths) d.fail();
    p.node.transition = Transition::deserialize(d);
    p.node.depth = static_cast<std::size_t>(d.get_u64());
    if (!deserialize_sleep_set(d, p.node.sleep)) {
      error = "malformed frontier nodes";
      clear_stores();
      return false;
    }
    pending.push_back(std::move(p));
  }
  if (!d.done()) {
    error = "trailing bytes after frontier section";
    clear_stores();
    return false;
  }

  // Rebuild the states by one memoized deterministic-replay pass over the
  // path table: state(i) = apply(transition(i), state(parent(i))), with
  // the initial state at ref 0. Prefixes are computed once and shared,
  // exactly like the live search shares them. Valid checkpoints never
  // route a path through a violating transition, so the sink stays empty.
  const Executor& executor = core.executor();
  auto initial =
      std::make_shared<const SystemState>(executor.make_initial());
  std::vector<std::shared_ptr<const SystemState>> state_at(paths.size());
  std::vector<Violation> sink;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const SystemState& src =
        parent_of[i] == 0 ? *initial : *state_at[parent_of[i] - 1];
    SystemState next = src.clone();
    executor.apply(next, paths[i]->transition, sink);
    state_at[i] = std::make_shared<const SystemState>(std::move(next));
  }

  nodes_.clear();
  nodes_.reserve(pending.size());
  for (PendingNode& p : pending) {
    p.node.state = p.path_ref == 0 ? initial : state_at[p.path_ref - 1];
    p.node.path = p.path_ref == 0 ? nullptr : paths[p.path_ref - 1];
    nodes_.push_back(std::move(p.node));
  }
  return true;
}

bool Durability::resume(const SearchCore& core) {
  std::string error;
  SlotInfo slots[2] = {
      read_checkpoint_slot(checkpoint_slot_a(options_.checkpoint_path)),
      read_checkpoint_slot(checkpoint_slot_b(options_.checkpoint_path))};
  // Newest valid slot first; fall back to the older one if the newest
  // payload is rejected (e.g. fingerprint mismatch after corruption of
  // the config the run was launched with).
  int order[2] = {0, 1};
  if (slots[1].valid &&
      (!slots[0].valid || slots[1].sequence > slots[0].sequence)) {
    order[0] = 1;
    order[1] = 0;
  }
  for (const int i : order) {
    SlotInfo& slot = slots[i];
    if (!slot.valid) {
      if (!slot.error.empty()) {
        if (!error.empty()) error += "; ";
        error += slot.error;
      }
      continue;
    }
    util::Des d(slot.payload);
    std::string perr;
    if (parse_payload(core, d, perr)) {
      resumed_ = true;
      sequence_ = slot.sequence + 1;
      last_save_ = SearchClock::now();
      return true;
    }
    if (!error.empty()) error += "; ";
    error += "slot seq " + std::to_string(slot.sequence) + ": " + perr;
  }
  if (error.empty()) error = "no checkpoint slots found";
  resume_error_ = std::move(error);
  return false;
}

void Durability::seed(CheckerResult& result) {
  if (!resumed_) return;
  result.transitions = seed_transitions_;
  result.unique_states = seed_unique_;
  result.revisits = seed_revisits_;
  result.quiescent_states = seed_quiescent_;
  result.violations = std::move(seed_violations_);
  seed_violations_.clear();
  result.discovery = seed_discovery_;
  result.durability.resumed = true;
}

LimitReason Durability::poll(const SearchCore& core,
                             std::uint64_t frontier_nodes) {
  util::WorkerTelemetry* const wt = util::Telemetry::current();
  if (interrupt_requested()) {
    clear_interrupt();  // honored: a second signal can request another halt
    if (wt != nullptr) {
      wt->record_event(util::FlightEvent::Kind::kSignal, 0, "interrupt");
    }
    return LimitReason::kInterrupted;
  }
  if (options_.memory_budget_bytes == 0) return LimitReason::kNone;
  por::FootprintMemo* const fp_memo = core.footprint_memo();
  DiscoveryCache& discovery = core.discovery();
  std::uint64_t bytes = core.resident_bytes(frontier_nodes);
  watchdog_bytes_ = bytes;
  while (bytes > options_.memory_budget_bytes) {
    const std::uint64_t fp_b =
        fp_memo != nullptr ? fp_memo->byte_budget() : 0;
    const std::uint64_t disc_b = discovery.byte_budget();
    if (fp_b == 0 && disc_b == 0) {
      // Ladder exhausted: the irreducible search state (seen-set,
      // collapse table, frontier) no longer fits. Halt
      // gracefully; the driver checkpoints before returning.
      if (wt != nullptr) {
        wt->record_event(util::FlightEvent::Kind::kWatchdog, bytes,
                         "ladder_exhausted");
      }
      return LimitReason::kMemory;
    }
    // Memo contents are count-invisible — halving them only costs
    // recomputation time. Budgets below 1 MiB go straight to zero.
    const auto next = [](std::uint64_t b) {
      return b >= (2ULL << 20) ? b / 2 : 0;
    };
    if (fp_memo != nullptr) fp_memo->shrink_to(next(fp_b));
    discovery.shrink_to(next(disc_b));
    ++memo_shrinks_;
    bytes = core.resident_bytes(frontier_nodes);
    watchdog_bytes_ = bytes;
    if (wt != nullptr) {
      wt->record_event(util::FlightEvent::Kind::kWatchdog, bytes,
                       "shrink_memos");
    }
  }
  return LimitReason::kNone;
}

void Durability::fill(CheckerResult& result) const {
  result.durability.checkpoints_written = checkpoints_written_;
  result.durability.checkpoint_bytes = checkpoint_bytes_;
  result.durability.resumed = result.durability.resumed || resumed_;
  result.durability.memo_shrinks = memo_shrinks_;
  result.durability.watchdog_bytes = watchdog_bytes_;
  result.durability.resume_error = resume_error_;
}

// ---- SearchCore accounting hook -------------------------------------------

std::uint64_t SearchCore::resident_bytes(std::uint64_t frontier_nodes) const {
  std::uint64_t bytes = seen_.store_bytes();
  if (collapse_ != nullptr) bytes += collapse_->interned_bytes();
  if (fp_memo_ != nullptr) bytes += fp_memo_->stats().bytes;
  bytes += discovery_.table_stats().bytes;
  return bytes + frontier_nodes * kFrontierNodeBytes;
}

}  // namespace nicemc::mc
