// Copy-on-write component snapshots with memoized canonical forms.
//
// Snap<T> holds one model component (a switch, a host state, the controller
// state, a property-monitor state) behind a shared pointer. Copying a Snap
// shares the underlying snapshot — this is what makes SystemState::clone()
// O(#components) pointer copies — and mut() is the explicit mutate-on-write
// accessor: it deep-copies the component only when the snapshot is shared
// with another state, and always drops the snapshot's memoized forms.
//
// Each snapshot lazily memoizes its canonical serialization (bytes + their
// 128-bit hash, one slot per canonical/raw flag). Because the memo lives on
// the *shared* node, a child state that did not touch a component reuses the
// bytes and hash its parent already computed — remember() re-hashes only
// what the transition changed. The COLLAPSE store memoizes one interned id
// per component the same way (form_id): a component is interned whole, as
// the exact bytes serialize() writes.
//
// A component can go one level finer (a PartHashed component, of::Switch):
// it holds its sections in Part<T>s, each its own copy-on-write node with
// two memoized hashes and a signature memo, and its hash combines the part
// hashes. Its Snap then holds a thin shell (part handles + configuration):
// mut() copies the shell, the component's mutators unshare only the parts
// they write, and hashing re-serializes only parts whose memo is empty.
// A part's bytes depend on that part alone (of::Switch keeps its buffer in
// the part whose channels name buffer ids), so a memo is one hash, valid
// until the part is written.
//
// One more memo rides on every snapshot and part node: the symmetry
// layer's member-signature bytes of that section (SigMemo). It is the one
// memo built under a util::Renamer, and it is sound because the renamer
// is fixed: a signature pass names every orbit member BOTTOM (or one of
// them TAG) under a renamer that depends only on the symmetry context and
// the orbit, elides uids, and ranks buffer names inside the part that
// holds the buffer, so a section's signature bytes are a function of its
// own content alone. The memo is keyed by the context's unique id, the
// orbit and the section, so a child state reuses every section it shares
// with its parent, and a context created later (even at a reused address)
// never reads another's memo. Because the bytes depend on the content
// alone, one memo also serves every other node of the same section whose
// content is equal: memos are immutable and reference-counted, and the
// symmetry layer hands a node without one a memo it built for another
// node with the same plain hash, instead of building it again.
//
// Thread-safety contract (matches the search engine's publication order):
// a snapshot or part shared between threads is immutable — mut() may only
// be called while the owning SystemState is not yet published to other
// workers. Lazy byte-form and interned-id fills on a shared Snap node are
// mutex-guarded, so two workers serializing states that share a parent's
// component race safely; every hash memo (a snapshot's and a part's) is a
// lock-free HashMemo, so SystemState::hash takes no lock, and a SigMemo
// is published with one compare-and-swap; its count is atomic, as nodes
// and caches of several threads may hold it. Apart from SigMemos, no memo
// may be built under an active util::Renamer (the symmetry layer
// serializes live values).
#ifndef NICE_UTIL_SNAP_H
#define NICE_UTIL_SNAP_H

#include <array>
#include <atomic>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/collapse.h"
#include "util/hash.h"
#include "util/ser.h"

namespace nicemc::util {

/// One memoized serialization of a component: the canonical bytes and the
/// 128-bit hash of exactly those bytes.
struct CanonForm {
  std::string bytes;
  Hash128 hash;
};

/// One memoized 128-bit hash. A seqlock over atomic words, so reading a
/// filled memo takes two loads of the sequence word and no lock; a fill
/// that meets another fill in progress is dropped, as the value can always
/// be recomputed.
class HashMemo {
 public:
  HashMemo() = default;
  HashMemo(const HashMemo&) = delete;
  HashMemo& operator=(const HashMemo&) = delete;

  [[nodiscard]] bool get(Hash128& out) const noexcept {
    const std::uint64_t seq = seq_.load(std::memory_order_acquire);
    if (seq == 0 || (seq & 1) != 0) return false;
    out.lo = lo_.load(std::memory_order_relaxed);
    out.hi = hi_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    return seq_.load(std::memory_order_relaxed) == seq;
  }

  void set(const Hash128& h) noexcept {
    std::uint64_t seq = seq_.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 ||
        !seq_.compare_exchange_strong(seq, seq + 1,
                                      std::memory_order_relaxed)) {
      return;
    }
    std::atomic_thread_fence(std::memory_order_release);
    lo_.store(h.lo, std::memory_order_relaxed);
    hi_.store(h.hi, std::memory_order_relaxed);
    seq_.store(seq + 2, std::memory_order_release);
  }

  /// Only legal while the owner is uniquely held (no concurrent readers).
  void reset() noexcept { seq_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> seq_{0};  // 0: empty; odd: being written
  std::atomic<std::uint64_t> lo_{0};
  std::atomic<std::uint64_t> hi_{0};
};

/// One section's member signatures under one symmetry context's signature
/// renamer (mc::SymContext): the BOTTOM bytes (every orbit member renamed
/// to BOTTOM), which members a lookup hit, and for each hit member j the
/// bytes with j renamed to TAG. A member the section never looked up reads
/// the BOTTOM bytes. A TAG form keeps only what differs from BOTTOM: it is
/// BOTTOM's first bytes, its own middle, then BOTTOM's last bytes. One
/// allocation holds it all: this header, the Tags, the BOTTOM bytes, then
/// the middles. A memo is immutable and reference-counted: every node
/// whose section has the same content can hold the same memo, and it is
/// freed with its last reference.
class SigMemo {
 public:
  struct Key {
    std::uint64_t owner;  // the symmetry context's unique id
    std::uint32_t orbit;
    std::uint32_t section;
    friend bool operator==(const Key&, const Key&) = default;
  };
  /// A hit member's form: BOTTOM's first `head` bytes, the middle that
  /// ends at `mid_end` in the memo's middles, BOTTOM's last `tail` bytes.
  struct Tag {
    std::uint32_t head;
    std::uint32_t tail;
    std::uint32_t mid_end;
  };
  /// One member's bytes of the section, in three pieces: head, middle,
  /// tail.
  using Pieces = std::array<std::string_view, 3>;

  /// One counted reference to a memo (or none).
  class Ref {
   public:
    Ref() = default;
    Ref(const Ref& o) noexcept : m_(o.m_) {
      if (m_ != nullptr) m_->acquire();
    }
    Ref(Ref&& o) noexcept : m_(std::exchange(o.m_, nullptr)) {}
    Ref& operator=(Ref o) noexcept {
      std::swap(m_, o.m_);
      return *this;
    }
    ~Ref() {
      if (m_ != nullptr) drop(m_);
    }

    [[nodiscard]] const SigMemo* get() const noexcept { return m_; }
    const SigMemo* operator->() const noexcept { return m_; }
    explicit operator bool() const noexcept { return m_ != nullptr; }

   private:
    friend class SigMemo;
    friend class SigMemoSlot;
    explicit Ref(const SigMemo* m) noexcept : m_(m) {}  // adopts one count
    const SigMemo* m_{nullptr};
  };

  /// `tags` holds one Tag per member in `hits` (bit j: a lookup hit member
  /// j), in member order, over the concatenated `middles`.
  [[nodiscard]] static Ref make(const Key& key, std::uint64_t hits,
                                std::string_view bottom,
                                std::span<const Tag> tags,
                                std::string_view middles) {
    void* p = ::operator new(sizeof(SigMemo) + tags.size_bytes() +
                             bottom.size() + middles.size());
    SigMemo* m = ::new (p) SigMemo(key, hits, bottom.size());
    // An empty source may be null, which memcpy must not be passed.
    auto copy = [](void* to, const void* from, std::size_t n) {
      if (n != 0) std::memcpy(to, from, n);
    };
    copy(m->tags(), tags.data(), tags.size_bytes());
    char* bytes = m->bytes();
    copy(bytes, bottom.data(), bottom.size());
    copy(bytes + bottom.size(), middles.data(), middles.size());
    return Ref(m);
  }

  /// Another reference to this memo.
  [[nodiscard]] Ref share() const noexcept {
    acquire();
    return Ref(this);
  }

  [[nodiscard]] const Key& key() const noexcept { return key_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }

  /// The section's bytes with every orbit member at BOTTOM.
  [[nodiscard]] std::string_view bottom() const noexcept {
    return {bytes(), bottom_size_};
  }

  /// Member j's bytes of this section.
  [[nodiscard]] Pieces member(std::uint32_t j) const noexcept {
    const char* bottom = bytes();
    const std::uint64_t bit = std::uint64_t{1} << j;
    using V = std::string_view;
    if ((hits_ & bit) == 0) return {V(bottom, bottom_size_), V(), V()};
    const Tag* t = tags();
    const auto i = static_cast<std::size_t>(std::popcount(hits_ & (bit - 1)));
    const std::uint32_t mid_begin = i == 0 ? 0 : t[i - 1].mid_end;
    return {V(bottom, t[i].head),
            V(bottom + bottom_size_ + mid_begin, t[i].mid_end - mid_begin),
            V(bottom + bottom_size_ - t[i].tail, t[i].tail)};
  }

 private:
  friend class SigMemoSlot;

  SigMemo(const Key& key, std::uint64_t hits, std::size_t bottom_size)
      : key_(key),
        hits_(hits),
        bottom_size_(static_cast<std::uint32_t>(bottom_size)) {}

  void acquire() const noexcept {
    refs_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Give up one count of `m`, freeing it with the last.
  static void drop(const SigMemo* m) noexcept {
    if (m->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ::operator delete(const_cast<SigMemo*>(m));
    }
  }

  Tag* tags() noexcept { return reinterpret_cast<Tag*>(this + 1); }
  const Tag* tags() const noexcept {
    return reinterpret_cast<const Tag*>(this + 1);
  }
  char* bytes() noexcept {
    return reinterpret_cast<char*>(tags() + std::popcount(hits_));
  }
  const char* bytes() const noexcept {
    return reinterpret_cast<const char*>(tags() + std::popcount(hits_));
  }

  Key key_;
  std::uint64_t hits_;
  mutable std::atomic<std::uint32_t> refs_{1};
  std::uint32_t bottom_size_;
};
// The Tags start right after the header, which operator delete frees
// without running a destructor.
static_assert(sizeof(SigMemo) % alignof(SigMemo::Tag) == 0);
static_assert(std::is_trivially_destructible_v<SigMemo>);

/// The SigMemos of one node, each holding one count of its memo, so
/// several contexts or orbits can each keep theirs. One word wide: null,
/// the only memo, or (low bit set) a Link to the first of several. Pushed
/// with a compare-and-swap and dropped only when the node is freed or
/// written (reset(), uniquely owned).
class SigMemoSlot {
 public:
  SigMemoSlot() = default;
  SigMemoSlot(const SigMemoSlot&) = delete;
  SigMemoSlot& operator=(const SigMemoSlot&) = delete;
  ~SigMemoSlot() { reset(); }

  [[nodiscard]] const SigMemo* find(const SigMemo::Key& key) const noexcept {
    return find_from(head_.load(std::memory_order_acquire), key);
  }

  /// Publish `m` and return it, or return the equal-keyed memo another
  /// thread published first (`m`'s count is then given back).
  const SigMemo* publish(SigMemo::Ref m) {
    std::uintptr_t head = head_.load(std::memory_order_acquire);
    std::unique_ptr<Link> link;
    for (;;) {
      if (const SigMemo* won = find_from(head, m->key_); won != nullptr) {
        return won;
      }
      std::uintptr_t word = reinterpret_cast<std::uintptr_t>(m.get());
      if (head != 0) {
        if (!link) link = std::make_unique<Link>(m.get(), 0);
        link->next = head;
        word = reinterpret_cast<std::uintptr_t>(link.get()) | kLink;
      }
      if (head_.compare_exchange_weak(head, word, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        if ((word & kLink) != 0) (void)link.release();
        return std::exchange(m.m_, nullptr);
      }
    }
  }

  /// Only legal while the owner is uniquely held (no concurrent readers).
  void reset() noexcept {
    std::uintptr_t w = head_.load(std::memory_order_relaxed);
    if (w == 0) return;  // outside symmetry, always
    head_.store(0, std::memory_order_relaxed);
    while ((w & kLink) != 0) {
      const Link* l = reinterpret_cast<const Link*>(w & ~kLink);
      SigMemo::drop(l->memo);
      w = l->next;
      delete l;
    }
    SigMemo::drop(reinterpret_cast<const SigMemo*>(w));
  }

 private:
  /// One memo of a slot that holds several, and the rest of the slot.
  struct Link {
    const SigMemo* memo;
    std::uintptr_t next;
  };
  static constexpr std::uintptr_t kLink = 1;
  static_assert(alignof(Link) > 1 && alignof(SigMemo) > 1);

  static const SigMemo* find_from(std::uintptr_t w,
                                  const SigMemo::Key& key) noexcept {
    for (; (w & kLink) != 0;
         w = reinterpret_cast<const Link*>(w & ~kLink)->next) {
      const SigMemo* m = reinterpret_cast<const Link*>(w & ~kLink)->memo;
      if (m->key_ == key) return m;
    }
    const auto* m = reinterpret_cast<const SigMemo*>(w);
    return m != nullptr && m->key_ == key ? m : nullptr;
  }

  std::atomic<std::uintptr_t> head_{0};
};

/// One copy-on-write part of a PartHashed component: the value plus a raw
/// and a canonical HashMemo and a SigMemoSlot. Copying shares the part;
/// mut() deep-copies it only when shared and always drops its memos.
template <typename T>
class Part {
 public:
  Part() : node_(std::make_shared<Node>()) {}
  explicit Part(T value) : node_(std::make_shared<Node>(std::move(value))) {}

  [[nodiscard]] const T& get() const noexcept { return node_->value; }

  [[nodiscard]] T& mut() {
    if (node_.use_count() == 1) {
      node_->memo[0].reset();
      node_->memo[1].reset();
      node_->sig.reset();
      return node_->value;
    }
    node_ = std::make_shared<Node>(node_->value);
    return node_->value;
  }

  [[nodiscard]] HashMemo& memo(bool canonical) const noexcept {
    return node_->memo[canonical ? 1 : 0];
  }

  [[nodiscard]] SigMemoSlot& sig_memo() const noexcept { return node_->sig; }

  /// True when two Parts alias the identical node (test hook).
  [[nodiscard]] bool same_part(const Part& o) const noexcept {
    return node_ == o.node_;
  }

 private:
  struct Node {
    T value;
    mutable HashMemo memo[2];  // [raw, canonical]
    mutable SigMemoSlot sig;

    Node() = default;
    explicit Node(const T& v) : value(v) {}
    explicit Node(T&& v) : value(std::move(v)) {}
  };

  std::shared_ptr<Node> node_;
};

/// A component whose hash combines memoized part hashes instead of hashing
/// its serialization: hash() fills part memos as needed, and
/// serialize_hashed() writes the bytes serialize() writes and returns the
/// same hash, filling each part's memo from its slice.
template <typename T>
concept PartHashed = requires(const T& t, Ser& s, bool canonical) {
  { t.hash(canonical) } -> std::same_as<Hash128>;
  { t.serialize_hashed(s, canonical) } -> std::same_as<Hash128>;
};

template <typename T>
class Snap {
 public:
  Snap() : node_(std::make_shared<Node>()) {}
  explicit Snap(T value) : node_(std::make_shared<Node>(std::move(value))) {}

  // Copying shares the snapshot (copy-on-write); moving transfers it.
  Snap(const Snap&) = default;
  Snap& operator=(const Snap&) = default;
  Snap(Snap&&) noexcept = default;
  Snap& operator=(Snap&&) noexcept = default;

  /// Read access — never copies.
  [[nodiscard]] const T& get() const noexcept { return node_->value; }
  [[nodiscard]] const T& operator*() const noexcept { return node_->value; }
  [[nodiscard]] const T* operator->() const noexcept {
    return &node_->value;
  }

  /// Explicit mutate-on-write accessor. Deep-copies the component iff the
  /// snapshot is shared with another Snap; always invalidates the memoized
  /// forms. The returned reference stays valid (no further reallocation)
  /// until this Snap is copied and mut() is called again.
  [[nodiscard]] T& mut() {
    if (node_.use_count() == 1) {
      node_->reset_forms();
      return node_->value;
    }
    node_ = std::make_shared<Node>(node_->value);
    return node_->value;
  }

  /// True when two Snaps alias the identical snapshot (test hook).
  [[nodiscard]] bool same_snapshot(const Snap& o) const noexcept {
    return node_ == o.node_;
  }

  /// The component's serialization in the requested form (bytes + hash),
  /// memoized on the shared snapshot. Only full-state mode and trace
  /// output need the bytes — hash-mode searches should use form_hash(),
  /// which does not pin a copy of the serialization on every live state.
  [[nodiscard]] const CanonForm& form(bool canonical) const {
    Node& n = *node_;
    std::lock_guard<std::mutex> lock(n.mu);
    std::optional<CanonForm>& slot = n.form[canonical ? 1 : 0];
    if (!slot) {
      thread_local Ser scratch;  // clear() keeps capacity across calls
      scratch.clear();
      CanonForm cf;
      cf.hash = serialize_hashed(n, scratch, canonical);
      cf.bytes = std::string(scratch.view());
      n.hash[canonical ? 1 : 0].set(cf.hash);
      slot.emplace(std::move(cf));
    }
    return *slot;
  }

  /// Memoized hash of the component's serialization. Unlike form(), this
  /// retains only the 16-byte hash: the bytes pass through a per-thread
  /// scratch buffer, so the default hash-mode search stores no component
  /// serializations at all (Section 6's computation-for-memory trade).
  /// Takes no lock: a filled memo is a HashMemo read, and two threads that
  /// both find it empty compute the same value.
  [[nodiscard]] Hash128 form_hash(bool canonical) const {
    const Node& n = *node_;
    HashMemo& memo = n.hash[canonical ? 1 : 0];
    Hash128 h;
    if (memo.get(h)) return h;
    if constexpr (PartHashed<T>) {
      h = n.value.hash(canonical);
    } else {
      thread_local Ser scratch;  // clear() keeps capacity across calls
      scratch.clear();
      h = serialize_hashed(n, scratch, canonical);
    }
    memo.set(h);
    return h;
  }

  /// Intern the component's serialization in `table` (COLLAPSE mode) and
  /// return the assigned blob id, memoized per (table, form) on the shared
  /// snapshot. Serializes and interns in one pass: like form_hash(), the
  /// bytes go through a per-thread scratch buffer and are never pinned on
  /// the snapshot — a collapsed-mode search retains one copy of each
  /// *distinct* blob in the table, not one per live state. The component's
  /// form hash is memoized as a side effect, so a SystemState::hash() that
  /// follows a collapse is free.
  [[nodiscard]] std::uint32_t form_id(bool canonical,
                                      CollapseTable& table) const {
    Node& n = *node_;
    std::lock_guard<std::mutex> lock(n.mu);
    const int i = canonical ? 1 : 0;
    if (n.id_table[i] == &table && n.id_epoch[i] == table.epoch()) {
      return n.id[i];
    }
    thread_local Ser scratch;  // clear() keeps capacity across calls
    scratch.clear();
    Hash128 h;
    if (!PartHashed<T> && n.hash[i].get(h)) {
      serialize_value(n, scratch, canonical);
    } else {
      h = serialize_hashed(n, scratch, canonical);
      n.hash[i].set(h);
    }
    const std::uint32_t id = table.intern(scratch.view());
    n.id_table[i] = &table;
    n.id_epoch[i] = table.epoch();
    n.id[i] = id;
    return id;
  }

  /// The symmetry layer's member-signature memos of this component.
  [[nodiscard]] SigMemoSlot& sig_memo() const noexcept { return node_->sig; }

  /// Memoized hash of an arbitrary projection of the component (e.g. the
  /// controller's app-only hash used as the discovery-cache key). The
  /// caller must pass the same projection on every call for a given T.
  template <typename F>
  [[nodiscard]] Hash128 projection_hash(F&& compute) const {
    Node& n = *node_;
    std::lock_guard<std::mutex> lock(n.mu);
    if (!n.aux) n.aux = compute(static_cast<const T&>(n.value));
    return *n.aux;
  }

  /// Intern an arbitrary projection of the component in `table` and return
  /// the blob id, memoized per (table, epoch) like form_id(). `emit` must
  /// serialize the same projection on every call for a given T — the memo
  /// layer uses this for the controller's app-only bytes, giving discovery
  /// a collision-proof AppState-id (id equality ⇔ projection-bytes
  /// equality) instead of a 128-bit hash.
  template <typename F>
  [[nodiscard]] std::uint32_t projection_id(CollapseTable& table,
                                            F&& emit) const {
    Node& n = *node_;
    std::lock_guard<std::mutex> lock(n.mu);
    if (n.aux_id_table == &table && n.aux_id_epoch == table.epoch()) {
      return n.aux_id;
    }
    thread_local Ser scratch;  // clear() keeps capacity across calls
    scratch.clear();
    emit(static_cast<const T&>(n.value), scratch);
    const std::uint32_t id = table.intern(scratch.view());
    n.aux_id_table = &table;
    n.aux_id_epoch = table.epoch();
    n.aux_id = id;
    return id;
  }

 private:
  struct Node {
    T value;
    mutable std::mutex mu;  // guards lazy form and id fills
    mutable std::optional<CanonForm> form[2];  // [raw, canonical]
    mutable HashMemo hash[2];  // the forms' hashes, also without the bytes
    mutable std::optional<Hash128> aux;
    mutable SigMemoSlot sig;
    // Interned blob id per form, valid only for the (table, epoch) it was
    // interned in: differential runs intern one snapshot in several
    // tables, and a clear()ed table restarts its id space.
    mutable const CollapseTable* id_table[2]{nullptr, nullptr};
    mutable std::uint64_t id_epoch[2]{0, 0};
    mutable std::uint32_t id[2]{0, 0};
    // Interned projection id (projection_id), same (table, epoch) rules.
    mutable const CollapseTable* aux_id_table{nullptr};
    mutable std::uint64_t aux_id_epoch{0};
    mutable std::uint32_t aux_id{0};

    Node() = default;
    explicit Node(const T& v) : value(v) {}
    explicit Node(T&& v) : value(std::move(v)) {}
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    // Only legal while the node is uniquely owned (no concurrent readers).
    void reset_forms() {
      form[0].reset();
      form[1].reset();
      hash[0].reset();
      hash[1].reset();
      aux.reset();
      sig.reset();
      id_table[0] = nullptr;
      id_table[1] = nullptr;
      aux_id_table = nullptr;
    }
  };

  // Serialize n.value into s (caller holds n.mu). Dispatches to
  // `serialize(Ser&, bool canonical)` when the component distinguishes
  // forms, else to `serialize(Ser&)`.
  static void serialize_value(const Node& n, Ser& s, bool canonical) {
    if constexpr (requires(const T& t, Ser& out) {
                    t.serialize(out, canonical);
                  }) {
      n.value.serialize(s, canonical);
    } else {
      n.value.serialize(s);
    }
  }

  // Serialize n.value into s and return the component's hash: the hash of
  // the bytes, or for a PartHashed component its combined part hash.
  static Hash128 serialize_hashed(const Node& n, Ser& s, bool canonical) {
    if constexpr (PartHashed<T>) {
      return n.value.serialize_hashed(s, canonical);
    } else {
      serialize_value(n, s, canonical);
      return s.hash();
    }
  }

  std::shared_ptr<Node> node_;
};

/// Lightweight iterable view over a vector of Snaps that yields `const T&`,
/// so read loops look like loops over plain components.
template <typename T>
class SnapListView {
 public:
  using Storage = std::vector<Snap<T>>;

  explicit SnapListView(const Storage& v) noexcept : v_(&v) {}

  class iterator {
   public:
    explicit iterator(const Snap<T>* p) noexcept : p_(p) {}
    const T& operator*() const noexcept { return p_->get(); }
    const T* operator->() const noexcept { return &p_->get(); }
    iterator& operator++() noexcept {
      ++p_;
      return *this;
    }
    friend bool operator==(iterator a, iterator b) noexcept {
      return a.p_ == b.p_;
    }

   private:
    const Snap<T>* p_;
  };

  [[nodiscard]] iterator begin() const noexcept {
    return iterator(v_->data());
  }
  [[nodiscard]] iterator end() const noexcept {
    return iterator(v_->data() + v_->size());
  }
  [[nodiscard]] std::size_t size() const noexcept { return v_->size(); }
  [[nodiscard]] bool empty() const noexcept { return v_->empty(); }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return (*v_)[i].get();
  }

 private:
  const Storage* v_;
};

}  // namespace nicemc::util

#endif  // NICE_UTIL_SNAP_H
