// FIFO communication channels (paper Section 2.2.2, "simple communication
// channels"). Packet channels can enable a fault model — the model checker
// then enumerates drop/duplicate transitions for the head packet. The
// OpenFlow control channel is reliable and in-order.
//
// A channel holds a handful of elements and is copied with its component on
// every copy-on-write clone, so it is backed by a std::vector: an empty
// channel allocates nothing (a std::deque allocates a node even when
// empty), and head removal/insertion shifts the few elements behind it.
// Unlike a deque, a push or pop invalidates references returned by front()
// and iterators into items().
#ifndef NICE_OF_CHANNEL_H
#define NICE_OF_CHANNEL_H

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/ser.h"

namespace nicemc::of {

/// Fault-model switches for a packet channel.
struct ChannelFaults {
  bool may_drop{false};
  bool may_duplicate{false};

  friend bool operator==(const ChannelFaults&, const ChannelFaults&) = default;
};

template <typename T>
class Fifo {
 public:
  void push(T v) { items_.push_back(std::move(v)); }

  T pop() {
    assert(!items_.empty());
    T v = std::move(items_.front());
    items_.erase(items_.begin());
    return v;
  }

  [[nodiscard]] const T& front() const {
    assert(!items_.empty());
    return items_.front();
  }

  /// Duplicate the head element in place (fault model).
  void duplicate_head() {
    assert(!items_.empty());
    T head = items_.front();
    items_.insert(items_.begin(), std::move(head));
  }

  /// Drop the head element (fault model).
  void drop_head() {
    assert(!items_.empty());
    items_.erase(items_.begin());
  }

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] const std::vector<T>& items() const noexcept { return items_; }

  friend bool operator==(const Fifo&, const Fifo&) = default;

  template <typename SerFn>
  void serialize(util::Ser& s, SerFn&& f) const {
    s.put_u32(static_cast<std::uint32_t>(items_.size()));
    for (const T& v : items_) f(s, v);
  }

 private:
  std::vector<T> items_;
};

}  // namespace nicemc::of

#endif  // NICE_OF_CHANNEL_H
