#include "of/flowtable.h"

#include <algorithm>
#include <string_view>

namespace nicemc::of {

namespace {

/// Canonical order of two rules: priority descending, then key bytes
/// ascending, each key written into its own per-thread buffer.
bool canonically_before(const Rule& a, const Rule& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  thread_local util::Ser ka;
  thread_local util::Ser kb;
  ka.clear();
  kb.clear();
  a.serialize_key(ka);
  b.serialize_key(kb);
  return ka.view() < kb.view();
}

}  // namespace

void FlowTable::place(std::uint32_t idx) {
  const auto at = std::lower_bound(
      order_.begin(), order_.end(), idx,
      [this](std::uint32_t x, std::uint32_t y) {
        return canonically_before(rules_[x], rules_[y]);
      });
  order_.insert(at, idx);
}

void FlowTable::add(Rule r) {
  for (Rule& existing : rules_) {
    if (existing.match == r.match && existing.priority == r.priority) {
      // Keeps its place: the fixed-length match bytes and the priority
      // already order it against every other rule, so actions never do.
      existing = std::move(r);
      return;
    }
  }
  rules_.push_back(std::move(r));
  place(static_cast<std::uint32_t>(rules_.size() - 1));
}

void FlowTable::erase_at(std::size_t idx) {
  rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(idx));
  std::erase(order_, static_cast<std::uint32_t>(idx));
  for (std::uint32_t& i : order_) {
    if (i > idx) --i;
  }
}

std::size_t FlowTable::remove(const Match& m,
                              std::optional<std::uint16_t> priority) {
  std::size_t removed = 0;
  for (std::size_t i = rules_.size(); i-- > 0;) {
    const Rule& r = rules_[i];
    if (r.match == m && (!priority || r.priority == *priority)) {
      erase_at(i);
      ++removed;
    }
  }
  return removed;
}

std::optional<std::size_t> FlowTable::lookup(
    PortId port, const sym::PacketFields& h) const {
  for (const std::uint32_t i : order_) {
    if (rules_[i].match.matches(port, h)) return i;
  }
  return std::nullopt;
}

void FlowTable::count_hit(std::size_t idx, std::uint32_t bytes) {
  rules_[idx].packet_count += 1;
  rules_[idx].byte_count += bytes;
}

void FlowTable::serialize(util::Ser& s, bool canonical) const {
  s.put_tag('T');
  s.put_u32(static_cast<std::uint32_t>(rules_.size()));
  if (!canonical) {
    for (const Rule& r : rules_) r.serialize(s);
    return;
  }
  if (rules_.size() < 2 ||
      !util::rn_renames_hosts(util::Renamer::active())) {
    // The renaming is the identity on every key: the stored order is the
    // canonical one.
    for (const std::uint32_t i : order_) rules_[i].serialize(s);
    return;
  }
  // Renamed identifiers reorder keys: sort by the renamed key bytes, all
  // written into one per-thread buffer.
  thread_local util::Ser keys;
  thread_local std::vector<std::size_t> ends;
  thread_local std::vector<std::uint32_t> order;
  keys.clear();
  ends.clear();
  for (const Rule& r : rules_) {
    r.serialize_key(keys);
    ends.push_back(keys.size());
  }
  const auto key = [](std::uint32_t i) {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return keys.view().substr(begin, ends[i] - begin);
  };
  order.assign(order_.begin(), order_.end());
  std::sort(order.begin(), order.end(),
            [this, &key](std::uint32_t a, std::uint32_t b) {
              if (rules_[a].priority != rules_[b].priority) {
                return rules_[a].priority > rules_[b].priority;
              }
              return key(a) < key(b);
            });
  for (const std::uint32_t i : order) rules_[i].serialize(s);
}

}  // namespace nicemc::of
